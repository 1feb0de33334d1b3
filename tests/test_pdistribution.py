import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bargmann_phase import geomphase, pdistribution
from bargmann_phase import io as io_mod
from bargmann_phase.fock import TruncationDim
from bargmann_phase.geomphase import (
    StateSpec,
    random_evolved_scenarios,
    random_independent_scenarios,
)
from bargmann_phase.pdistribution import ORIGIN, PhaseSpacePoint, QuasiProbability, mehta_p_function
from oracles import (
    NumericalFunction,
    constant_function,
    displaced_fock_density,
    displaced_fock_state,
    fock_element_function,
    gaussian_smear_function,
    pair,
    reconstruct_density_element,
)

ALL_OCCUPATIONS = [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_phase_space_point_complex_round_trip():
    pt = PhaseSpacePoint.from_complex(0.3 - 0.7j)
    assert (pt.q, pt.p) == (0.3, -0.7)
    assert pt.to_complex() == 0.3 - 0.7j
    moved = pt.shifted(0.1, 0.2)
    assert (moved.q, moved.p) == pytest.approx((0.4, -0.5), abs=1e-15)
    with pytest.raises(ValueError):
        PhaseSpacePoint(math.nan, 0.0)


def test_delta_term_validation():
    for orders in ((3, 0, 0, 0), (0, 0, 0), (0, -1, 0, 0)):
        with pytest.raises(ValueError):
            constant_function().partial(orders, (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        QuasiProbability(terms=())


def test_vacuum_p_is_single_delta():
    p = mehta_p_function((0, 0))
    assert len(p.terms) == 1
    term = p.terms[0]
    assert term.coeff == 1.0
    assert (term.z_vars, term.zbar_vars) == ((), ())
    assert term.centers == (0j, 0j)


def test_single_photon_p_term_structure():
    # born in Wirtinger form: d_z d_zbar on each occupied mode, coefficient 1
    p = mehta_p_function((1, 0))
    assert [(t.coeff, t.z_vars, t.zbar_vars) for t in p.terms] == [(1.0, (0,), (0,))]
    p11 = mehta_p_function((1, 1))
    assert [(t.coeff, t.z_vars, t.zbar_vars) for t in p11.terms] == [(1.0, (0, 1), (0, 1))]
    # which the pfunc schema writes as the real-coordinate oracle's (q, p) form,
    # (1/4)(d_q^2 + d_p^2) per occupied mode
    shift = (PhaseSpacePoint(0.3, -0.1), PhaseSpacePoint(0.0, 0.2))
    for occupation in ALL_OCCUPATIONS:
        doc = io_mod.pfunc_document(occupation, shift)
        terms = [(complex(*t["coeff"]), tuple(t["center"]), tuple(t["orders"])) for t in doc["terms"]]
        assert terms == oracles.delta_terms(occupation, (0.3, -0.1, 0.0, 0.2))


def test_mehta_p_rejects_higher_occupation():
    with pytest.raises(ValueError):
        mehta_p_function((2, 0))


def test_shift_moves_centers_only():
    shift = (PhaseSpacePoint(0.3, -0.1), PhaseSpacePoint(0.0, 0.2))
    p = mehta_p_function((1, 1), shift=shift)
    direct = mehta_p_function((1, 1)).shifted(*shift)
    assert p == direct
    for term in p.terms:
        assert term.centers == (0.3 - 0.1j, 0.2j)
    base = mehta_p_function((1, 1))
    assert [t[2:] for t in p.terms] == [t[2:] for t in base.terms]
    assert [t.coeff for t in p.terms] == [t.coeff for t in base.terms]


@pytest.mark.parametrize("occupation", ALL_OCCUPATIONS)
def test_trace_normalization(occupation):
    p = mehta_p_function(occupation, shift=(PhaseSpacePoint(0.2, 0.1), PhaseSpacePoint(-0.3, 0.0)))
    assert pair(p, constant_function()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("occupation", ALL_OCCUPATIONS)
def test_reconstruction_matches_truncated_density(occupation):
    dim = TruncationDim(20)
    z1, z2 = 0.24 - 0.13j, -0.09 + 0.31j
    shift = (PhaseSpacePoint.from_complex(z1), PhaseSpacePoint.from_complex(z2))
    p = mehta_p_function(occupation, shift=shift)
    rho = displaced_fock_density(z1, occupation[0], z2, occupation[1], dim)
    worst = 0.0
    for m1 in range(4):
        for m2 in range(4):
            for n1 in range(4):
                for n2 in range(4):
                    got = reconstruct_density_element(p, (m1, m2), (n1, n2))
                    want = rho.matrix[dim.index(m1, m2), dim.index(n1, n2)]
                    worst = max(worst, abs(got - want))
    assert worst <= 1e-8


def test_reconstruction_is_hermitian():
    p = mehta_p_function((1, 1), shift=(PhaseSpacePoint(0.15, 0.2), ORIGIN))
    for bra in [(0, 0), (1, 0), (2, 1)]:
        for ket in [(0, 1), (1, 1), (3, 0)]:
            lhs = reconstruct_density_element(p, bra, ket)
            rhs = reconstruct_density_element(p, ket, bra)
            assert lhs == pytest.approx(np.conjugate(rhs), abs=1e-12)


def test_pairing_is_linear():
    rng = np.random.default_rng(71)
    f = fock_element_function((1, 0), (1, 0))
    pa = mehta_p_function((1, 0))
    pb = mehta_p_function((0, 1), shift=(PhaseSpacePoint(0.1, 0.0), PhaseSpacePoint(0.0, 0.2)))
    for _ in range(5):
        w = complex(*rng.uniform(-1, 1, 2))
        combined = pa.scaled(w).combined(pb)
        direct = w * pair(pa, f) + pair(pb, f)
        assert pair(combined, f) == pytest.approx(direct, abs=1e-12)


def test_translation_covariance_of_pairing():
    # pairing a shifted P against f equals pairing P against the
    # translated function
    shift = (PhaseSpacePoint(0.21, -0.34), PhaseSpacePoint(0.05, 0.17))
    offset = [shift[0].q, shift[0].p, shift[1].q, shift[1].p]
    for occupation in ALL_OCCUPATIONS:
        p = mehta_p_function(occupation)
        f = fock_element_function((1, 0), (0, 1))
        lhs = pair(p.shifted(*shift), f)
        rhs = pair(p, f.translated(offset))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_envelope_flag_changes_pairing():
    p = mehta_p_function((1, 0))
    bare = QuasiProbability(terms=p.terms, envelope=False)
    f = constant_function()
    assert pair(p, f) == pytest.approx(1.0, abs=1e-12)
    # without the envelope the second delta derivatives see only the
    # constant, which kills the trace
    assert pair(bare, f) == pytest.approx(0.0, abs=1e-12)


def test_witness_single_mode_negative():
    sigma = 0.1
    smear1 = gaussian_smear_function(sigma, modes=(1,))
    smear2 = gaussian_smear_function(sigma, modes=(2,))
    p = mehta_p_function((1, 1))
    m1 = pair(p, smear1)
    m2 = pair(p, smear2)
    expected = 1.0 - 1.0 / (2.0 * sigma**2)
    assert m1 == pytest.approx(expected, abs=1e-9)
    assert m1.real == pytest.approx(-49.0, abs=1e-9)
    assert m2 == pytest.approx(m1, abs=1e-12)
    assert m1.real < 0
    assert abs(m1.imag) < 1e-12


def test_witness_joint_smear_factorizes():
    sigma = 0.1
    p = mehta_p_function((1, 1))
    joint = pair(p, gaussian_smear_function(sigma))
    m1 = pair(p, gaussian_smear_function(sigma, modes=(1,)))
    m2 = pair(p, gaussian_smear_function(sigma, modes=(2,)))
    assert joint == pytest.approx(m1 * m2, abs=1e-8)
    assert joint.real == pytest.approx(2401.0, abs=1e-8)
    assert joint.real > 0


def test_witness_vacuum_positive():
    p = mehta_p_function((0, 0))
    for modes in [(1,), (2,), (1, 2)]:
        val = pair(p, gaussian_smear_function(0.1, modes=modes))
        assert val.real == pytest.approx(1.0, abs=1e-12)


def test_witness_sign_tracks_smear_width():
    p10 = mehta_p_function((1, 0))
    narrow = pair(p10, gaussian_smear_function(0.2, modes=(1,)))
    wide = pair(p10, gaussian_smear_function(1.0, modes=(1,)))
    assert narrow.real == pytest.approx(1.0 - 12.5, abs=1e-9)
    assert wide.real == pytest.approx(0.5, abs=1e-9)


def test_fock_element_function_values():
    f = fock_element_function((1, 0), (1, 0))
    z = 0.4 + 0.2j
    got = f.value((z.real, z.imag, 0.0, 0.0))
    want = abs(z) ** 2 * math.exp(-abs(z) ** 2)
    assert got == pytest.approx(want, rel=1e-12)
    g = fock_element_function((0, 2), (0, 0))
    w = -0.1 + 0.3j
    got = g.value((0.0, 0.0, w.real, w.imag))
    want = math.exp(-abs(w) ** 2) * w**2 / math.sqrt(2.0)
    assert got == pytest.approx(want, rel=1e-12)


def test_gaussian_function_translated_matches_shifted_argument():
    rng = np.random.default_rng(73)
    f = fock_element_function((1, 1), (0, 1))
    for _ in range(5):
        point = rng.uniform(-0.5, 0.5, 4)
        offset = rng.uniform(-0.5, 0.5, 4)
        lhs = f.translated(offset).value(point)
        rhs = f.value(point + offset)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_symbolic_partials_match_finite_differences():
    f = fock_element_function((1, 0), (1, 1))
    num = NumericalFunction(lambda x: f.value(x), nvars=4)
    point = (0.13, -0.22, 0.31, 0.07)
    for orders in [(1, 0, 0, 0), (0, 2, 0, 0), (1, 1, 0, 0), (0, 1, 2, 0), (2, 0, 0, 2)]:
        sym = f.partial(orders, point)
        ref = num.partial(orders, point)
        assert sym == pytest.approx(ref, rel=2e-4, abs=2e-4)


def test_pair_agrees_with_numerical_route():
    p = mehta_p_function((1, 1), shift=(PhaseSpacePoint(0.1, -0.2), PhaseSpacePoint(0.0, 0.15)))
    f = fock_element_function((1, 1), (1, 1))
    sym = pair(p, f)

    def env_value(x):
        total = f.value(x)
        return total

    class EnvelopedNumerical:
        """Finite-difference pairing with the envelope made explicit."""

        def partial(self, orders, point):
            def g(x):
                env = np.exp(np.sum((np.asarray(x) - np.asarray(point)) ** 2))
                return env * env_value(x)

            return NumericalFunction(g, nvars=4).partial(orders, point)

    num = 0.0 + 0.0j
    for coeff, centers, orders in oracles.delta_terms((1, 1), (0.1, -0.2, 0.0, 0.15)):
        sign = -1.0 if sum(orders) % 2 else 1.0
        num += coeff * sign * EnvelopedNumerical().partial(orders, centers)
    assert sym == pytest.approx(num, rel=1e-3, abs=1e-4)


occupations = st.sampled_from(ALL_OCCUPATIONS)
mode_numbers = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    occupation=occupations,
    centers=st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4),
    bra=mode_numbers,
    ket=mode_numbers,
)
def test_reconstruction_matches_state_vector_outer_product(occupation, centers, bra, ket):
    dim = TruncationDim(20)
    z1, z2 = complex(*centers[:2]), complex(*centers[2:])
    state = StateSpec.from_complex(occupation, z1, z2)
    psi = displaced_fock_state(z1, occupation[0], z2, occupation[1], dim)
    want = psi[dim.index(*bra)] * np.conjugate(psi[dim.index(*ket)])
    got = reconstruct_density_element(mehta_p_function(state.occupation, state.centers), bra, ket)
    assert abs(got - want) <= 1e-8


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    occupation=occupations,
    offset=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
    bra=mode_numbers,
    ket=mode_numbers,
    sigma=st.floats(0.3, 2.0),
    modes=st.sampled_from([(1,), (2,), (1, 2)]),
)
def test_translation_covariance_property(occupation, offset, bra, ket, sigma, modes):
    p = mehta_p_function(occupation)
    shift = (PhaseSpacePoint(*offset[:2]), PhaseSpacePoint(*offset[2:]))
    for f in (fock_element_function(bra, ket), gaussian_smear_function(sigma, modes)):
        lhs = pair(p.shifted(*shift), f)
        rhs = pair(p, f.translated(offset))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)
        # a translated function translates again
        twice = pair(p.shifted(*shift).shifted(*shift), f)
        assert abs(twice - pair(p, f.translated(offset).translated(offset))) <= 1e-12 * max(abs(twice), 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    point=st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    bra=mode_numbers,
    ket=mode_numbers,
)
def test_fock_element_value_matches_closed_form(point, bra, ket):
    want = 1.0 + 0.0j
    for z, m, n in zip((complex(*point[:2]), complex(*point[2:])), bra, ket):
        want *= math.exp(-abs(z) ** 2) * z**m * z.conjugate() ** n
        want /= math.sqrt(math.factorial(m) * math.factorial(n))
    got = fock_element_function(bra, ket).value(point)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_oracle_central_difference_self_check():
    val = oracles.central_difference(math.sin, 0.3, 1)
    assert val == pytest.approx(math.cos(0.3), abs=1e-9)
    val2 = oracles.central_difference(math.sin, 0.3, 2)
    assert val2 == pytest.approx(-math.sin(0.3), abs=1e-5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    size=st.integers(1, 4),
    z_slots=st.lists(st.integers(0, 3), max_size=5),
    zbar_slots=st.lists(st.integers(0, 3), max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
# the largest structure pair reaches: P(1, 1) against <2,2|z><z|2,2>
@example(size=5, z_slots=[0, 1, 2, 2, 3, 3], zbar_slots=[0, 1, 2, 2, 3, 3], seed=5)
def test_matching_sum_matches_enumeration(size, z_slots, zbar_slots, seed):
    # slots of one variable repeat freely, which exercises the counted states;
    # three forms are checked, the last with zero pair weights, which the sum
    # skips, and purely imaginary ones, which it must not
    z_vars = tuple(v % size for v in z_slots)
    zbar_vars = tuple(v % size for v in zbar_slots)
    rng = np.random.default_rng(seed)
    hess, grad_z, grad_zbar = (
        rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for shape in ((3, size, size), (3, size), (3, size))
    )
    hess[2][rng.random((size, size)) < 0.5] = 0.0
    hess[2].real[rng.random((size, size)) < 0.5] = 0.0
    for g in range(3):
        got = oracles._matching_sum(z_vars, zbar_vars, grad_z[g], grad_zbar[g], hess[g])
        want = oracles.matching_sum_by_enumeration(
            z_vars, zbar_vars, grad_z[g], grad_zbar[g], hess[g])
        # the same enumeration over absolute values is the sum of |terms|
        scale = oracles.matching_sum_by_enumeration(
            z_vars, zbar_vars, abs(grad_z[g]), abs(grad_zbar[g]), abs(hess[g])
        ).real
        assert abs(got - want) <= 1e-12 * scale


def test_pairing_caches_are_keyed_on_structure_only():
    # fresh centers and coefficients every round; only term structures repeat
    caches = {
        name: obj
        for module in (pdistribution, oracles, geomphase)
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_info")
    }
    assert set(caches) == {"_wirtinger_expansion", "_product_vars"}

    def one_round(seed):
        for s in random_evolved_scenarios(200, seed) + random_independent_scenarios(200, seed + 1):
            s.pairing_invariant()
        rng = np.random.default_rng(seed + 2)
        f = fock_element_function((1, 0), (0, 1))
        for i in range(50):
            centers = [PhaseSpacePoint(*xy) for xy in rng.uniform(-0.5, 0.5, size=(2, 2))]
            factor = complex(*rng.uniform(0.5, 2.0, size=2))
            pair(mehta_p_function(ALL_OCCUPATIONS[i % 4], centers).scaled(factor), f)
            # (q, p) orders enter through the Wirtinger expansion
            f.partial(((1, 0, 2, 0), (0, 2, 0, 1))[i % 2], rng.uniform(-0.5, 0.5, size=4))
        return {name: cache.cache_info() for name, cache in caches.items()}

    first = one_round(31)
    second = one_round(71)
    for name, info in second.items():
        assert info.currsize == first[name].currsize, name
        assert info.misses == first[name].misses, name
