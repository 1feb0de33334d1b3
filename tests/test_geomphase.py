import cmath
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from bargmann_phase import geomphase
from bargmann_phase.fock import (
    TruncationDim,
    TruncationLeakageWarning,
    evolve,
    polarizer_unitary,
    triple_product_trace,
)
from bargmann_phase.geomphase import (
    PhaseScenario,
    StateSpec,
    circular_delta,
    closed_form_audit,
    method_reconciliation,
    phase_space_trace,
    random_evolved_scenarios,
    random_independent_scenarios,
    run_reconciliation,
)
from bargmann_phase.pdistribution import ORIGIN, PhaseSpacePoint, mehta_p_function
from oracles import density_operator, displaced_fock_state, label_map_matrix, triple_overlap


def spec(occupation, z1, z2):
    return StateSpec.from_complex(occupation, z1, z2)


def random_spec(rng, scale=0.35, occupation=None):
    if occupation is None:
        occupation = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    vals = rng.uniform(-scale, scale, 4)
    return spec(occupation, complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def state_vector(occupation, vertex, dim):
    return displaced_fock_state(vertex[0].to_complex(), occupation[0],
                                vertex[1].to_complex(), occupation[1], dim)


def oracle_invariant(specs):
    return oracles.triple_invariant_independent(
        [s.occupation for s in specs],
        [(s.centers[0].to_complex(), s.centers[1].to_complex()) for s in specs],
    )


def test_state_spec_validation_and_views():
    s = spec((1, 0), 0.3 - 0.2j, 0.1j)
    assert s.centers[0].to_complex() == 0.3 - 0.2j
    assert s.centers[1].to_complex() == 0.1j
    with pytest.raises(ValueError):
        StateSpec((2, 0), ORIGIN, ORIGIN)
    with pytest.raises(ValueError, match="supported occupations"):
        PhaseScenario.evolved((2, 0), (ORIGIN, ORIGIN), 0.1, 0.2)


def test_state_spec_equality_and_hash_on_fields():
    a = spec((1, 1), 0.3 - 0.2j, 0.1 + 0.25j)
    b = spec((1, 1), 0.3 - 0.2j, 0.1 + 0.25j)
    dim = TruncationDim(12)
    np.testing.assert_array_equal(a.sector_weights(dim), b.sector_weights(dim))
    assert a == b and hash(a) == hash(b)
    assert a != spec((1, 0), 0.3 - 0.2j, 0.1 + 0.25j)


def test_scenario_holds_a_matching_initial_state():
    vertex = (PhaseSpacePoint(0.3, -0.2), PhaseSpacePoint(0.1, 0.25))
    first = PhaseScenario.evolved((1, 1), vertex, 0.4, 0.7)
    assert first.initial_state == StateSpec((1, 1), *vertex)
    moved = dataclasses.replace(first, theta1=1.1)
    assert moved.initial_state == first.initial_state
    assert moved == PhaseScenario.evolved((1, 1), vertex, 1.1, 0.7)
    assert dataclasses.replace(first, vertex_a=(ORIGIN, ORIGIN)).initial_state == StateSpec((1, 1))


def test_pairing_matches_analytic_oracle_independent():
    rng = np.random.default_rng(83)
    for _ in range(20):
        specs = [random_spec(rng) for _ in range(3)]
        got = phase_space_trace(*specs)
        want = oracle_invariant(specs)
        assert abs(got.invariant - want) <= 1e-12


def test_pairing_matches_analytic_oracle_mixed_occupations():
    specs = [
        spec((1, 1), 0.2, -0.1j),
        spec((0, 1), 0.1 + 0.1j, 0.25),
        spec((1, 0), -0.3j, 0.05 - 0.2j),
    ]
    got = phase_space_trace(*specs)
    want = oracle_invariant(specs)
    assert abs(got.invariant - want) <= 1e-12


def test_pairing_matches_fock_oracle_independent():
    dim = TruncationDim(20)
    rng = np.random.default_rng(89)
    for _ in range(5):
        specs = [random_spec(rng, scale=0.3) for _ in range(3)]
        pairing = phase_space_trace(*specs)
        fock = triple_overlap(*(state_vector(s.occupation, s.centers, dim) for s in specs))
        assert abs(pairing.invariant - fock.invariant) <= 1e-8


def test_pairing_equal_states_is_one():
    for occupation in [(0, 0), (1, 0), (1, 1)]:
        s = spec(occupation, 0.2 - 0.1j, 0.05 + 0.3j)
        res = phase_space_trace(s, s, s)
        assert abs(res.invariant - 1.0) < 1e-12
        assert res.phase == pytest.approx(0.0, abs=1e-12)


def test_pairing_cyclic_and_reversal_symmetry():
    rng = np.random.default_rng(97)
    for _ in range(5):
        s1, s2, s3 = (random_spec(rng) for _ in range(3))
        base = phase_space_trace(s1, s2, s3)
        cyc = phase_space_trace(s2, s3, s1)
        rev = phase_space_trace(s3, s2, s1)
        assert abs(base.invariant - cyc.invariant) <= 1e-12
        assert abs(base.invariant - np.conjugate(rev.invariant)) <= 1e-12


def test_evolved_pairing_matches_fock_oracle():
    dim = TruncationDim(20)
    rng = np.random.default_rng(101)
    for _ in range(4):
        scenario = PhaseScenario.evolved(
            occupation=(int(rng.integers(0, 2)), int(rng.integers(0, 2))),
            vertex=(
                PhaseSpacePoint(*rng.uniform(-0.3, 0.3, 2)),
                PhaseSpacePoint(*rng.uniform(-0.3, 0.3, 2)),
            ),
            theta1=rng.uniform(0.0, math.pi),
            theta2=rng.uniform(0.0, math.pi),
        )
        pairing = scenario.pairing_invariant()
        fock = scenario.fock_invariant(dim)
        assert abs(pairing.invariant - fock.invariant) <= 1e-8


def dense_fock_invariant(scenario, dim):
    """Tr(rho1 rho2 rho3) from density matrices and the dense polarizer."""
    if scenario.is_evolved:
        psi1 = state_vector(scenario.occupation, scenario.vertex_a, dim)
        rho1 = density_operator(psi1, dim)
        rho2 = evolve(rho1, polarizer_unitary(scenario.theta1, dim))
        rhos = (rho1, rho2, evolve(rho2, polarizer_unitary(scenario.theta2, dim)))
    else:
        vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
        vecs = [state_vector(scenario.occupation, v, dim) for v in vertices]
        rhos = [density_operator(v, dim) for v in vecs]
    return triple_product_trace(*rhos).invariant


def test_fock_invariant_matches_dense_trace():
    dim = TruncationDim(25)
    populations = (random_evolved_scenarios(12, seed=41), random_independent_scenarios(12, seed=42))
    for scenarios in populations:
        for occupation in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            scenario = next(s for s in scenarios if s.occupation == occupation)
            got = scenario.fock_invariant(dim).invariant
            assert abs(got - dense_fock_invariant(scenario, dim)) <= 1e-12


def test_fock_invariant_converges_at_n_max_60():
    # |z| up to 2.3 with both modes occupied: at n_max 25 this chain misses
    # the 1e-6 rad gate (delta about 2e-6); at n_max 60 truncation is gone
    scenarios = random_evolved_scenarios(8, seed=62, scale=2.0)
    scenario = next(s for s in scenarios if s.occupation == (1, 1))
    fock = scenario.fock_invariant(TruncationDim(60))
    pairing = scenario.pairing_invariant()
    assert circular_delta(fock.phase, pairing.phase) <= 1e-9


occupations_strategy = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])


def vertex_from(values):
    return (PhaseSpacePoint(values[0], values[1]), PhaseSpacePoint(values[2], values[3]))


def exact_chain(scenario):
    """The chain's invariant from the exact Laguerre overlaps of tests/oracles.py."""
    z1, z2 = (v.to_complex() for v in scenario.vertex_a)
    return oracles.exact_chain_invariant(scenario.occupation, z1, z2, scenario.theta1, scenario.theta2)


def exact_triangle(scenario):
    vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
    return oracle_invariant([StateSpec(scenario.occupation, *v) for v in vertices])


def chain_bound(scenario, dim):
    """3 w_out: f(t) = <psi1|e^{-itG}|psi1> loses at most w_out = 1 - sum(p), the
    weight beyond n1 + n2 <= n_max, and |f| <= 1, so the chain's invariant is
    within 3 w_out of the exact one."""
    return 3 * (1.0 - scenario.initial_state.sector_weights(dim).sum())


def triangle_bound(scenario, dim):
    """The sum over pairs of sqrt(eps_i eps_j): each truncated overlap misses the
    exact one by at most sqrt(eps_i eps_j), eps_i the weight of state i beyond the
    cut (Cauchy-Schwarz), and every overlap has modulus at most 1."""
    vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
    eps = [max(1.0 - np.linalg.norm(state_vector(scenario.occupation, v, dim)) ** 2, 0.0)
           for v in vertices]
    return sum(math.sqrt(eps[i] * eps[i - 1]) for i in range(3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
)
def test_chain_truncation_error_is_within_the_proven_bound(n_max, occupation, centers, theta1, theta2):
    scenario = PhaseScenario.evolved(occupation, vertex_from(centers), theta1, theta2)
    dim = TruncationDim(n_max)
    error = abs(scenario.fock_invariant(dim).invariant - exact_chain(scenario))
    assert error <= chain_bound(scenario, dim) + 1e-12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
)
def test_triangle_truncation_error_is_within_the_proven_bound(n_max, occupation, centers):
    vertices = [vertex_from(centers[i : i + 4]) for i in (0, 4, 8)]
    scenario = PhaseScenario.independent(occupation, *vertices)
    dim = TruncationDim(n_max)
    error = abs(scenario.fock_invariant(dim).invariant - exact_triangle(scenario))
    assert error <= triangle_bound(scenario, dim) + 1e-12


def assert_phases_agree_under_the_bound(scenario, exact, bound, dim, tol):
    # the Fock invariant lies within bound (plus 1e-12 of rounding, as above) of
    # the exact one; relative to |exact| below sin(tol), its phase is within tol
    assume(bound + 1e-12 < tol / 10 * abs(exact))
    fock = scenario.fock_invariant(dim)
    assert circular_delta(fock.phase, cmath.phase(exact)) <= tol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
    tol=st.sampled_from([1e-6, 1e-3]),
)
def test_chain_phases_agree_when_the_bound_is_below_a_tenth_of_tol(
    n_max, occupation, centers, theta1, theta2, tol
):
    scenario = PhaseScenario.evolved(occupation, vertex_from(centers), theta1, theta2)
    dim = TruncationDim(n_max)
    assert_phases_agree_under_the_bound(scenario, exact_chain(scenario), chain_bound(scenario, dim), dim, tol)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
    tol=st.sampled_from([1e-6, 1e-3]),
)
def test_triangle_phases_agree_when_the_bound_is_below_a_tenth_of_tol(n_max, occupation, centers, tol):
    scenario = PhaseScenario.independent(occupation, *(vertex_from(centers[i : i + 4]) for i in (0, 4, 8)))
    dim = TruncationDim(n_max)
    assert_phases_agree_under_the_bound(
        scenario, exact_triangle(scenario), triangle_bound(scenario, dim), dim, tol)


def leakage_warnings(scenario, dim, tol):
    """method_reconciliation's row and the TruncationLeakageWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = method_reconciliation(scenario, dim=dim, tolerance=tol)
    return row, [w for w in caught if issubclass(w.category, TruncationLeakageWarning)]


def assert_warns_exactly_when_the_bound_exceeds_tol(row, caught, dim, tol):
    # rounding alone leaves a kept weight of n_max + 1 levels a mode within
    # (n_max + 1) float epsilons of its value, and either bound is at most 3 max eps_i
    floor = 3 * (dim.n_max + 1) * sys.float_info.epsilon
    fock = row.results["fock_oracle"]
    assert len(caught) == (fock.bound > max(tol * abs(fock.invariant), floor))
    for w in caught:
        assert f"n_max={dim.n_max}" in str(w.message)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
    tol=st.sampled_from([1e-6, 1e-3]),
)
def test_chain_warns_exactly_when_its_bound_exceeds_tol(n_max, occupation, centers, theta1, theta2, tol):
    scenario = PhaseScenario.evolved(occupation, vertex_from(centers), theta1, theta2)
    dim = TruncationDim(n_max)
    row, caught = leakage_warnings(scenario, dim, tol)
    # the same weights as the reference, clamped where their sum rounds past 1
    assert row.results["fock_oracle"].bound == max(0.0, chain_bound(scenario, dim))
    assert_warns_exactly_when_the_bound_exceeds_tol(row, caught, dim, tol)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 25),
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
    tol=st.sampled_from([1e-6, 1e-3]),
)
def test_triangle_warns_exactly_when_its_bound_exceeds_tol(n_max, occupation, centers, tol):
    scenario = PhaseScenario.independent(occupation, *(vertex_from(centers[i : i + 4]) for i in (0, 4, 8)))
    dim = TruncationDim(n_max)
    row, caught = leakage_warnings(scenario, dim, tol)
    # each eps_i rounds differently in the two sums, by up to delta = (n_max + 1)
    # float epsilons, and sqrt(eps_i eps_j) then moves by up to 2 sqrt(delta)
    delta = (n_max + 1) * sys.float_info.epsilon
    assert abs(row.results["fock_oracle"].bound - triangle_bound(scenario, dim)) <= 6 * math.sqrt(delta)
    assert_warns_exactly_when_the_bound_exceeds_tol(row, caught, dim, tol)


def test_bound_rides_only_on_the_fock_route():
    scenario = random_evolved_scenarios(1, seed=3)[0]
    row = method_reconciliation(scenario, dim=TruncationDim(25))
    assert row.results["fock_oracle"].bound is not None
    assert [r.bound for name, r in row.results.items() if name != "fock_oracle"] == [None, None]


def real_coordinate_invariant(scenario):
    """The pairing in (q, p) coordinates by the derivative recursion of tests/oracles.py."""
    def state(vertex):
        return scenario.occupation, (vertex[0].q, vertex[0].p, vertex[1].q, vertex[1].p)

    if scenario.is_evolved:
        m1 = label_map_matrix(scenario.theta1)
        maps = (np.eye(2), m1, m1 @ label_map_matrix(scenario.theta2))
        return oracles.real_coordinate_pairing((state(scenario.vertex_a),) * 3, maps)
    vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
    return oracles.real_coordinate_pairing([state(v) for v in vertices], (np.eye(2),) * 3)


def test_pairing_matches_real_coordinate_oracle():
    scenarios = random_evolved_scenarios(40, seed=11) + random_independent_scenarios(40, seed=12)
    assert {(s.is_evolved, s.occupation) for s in scenarios} == {
        (evolved, (n1, n2)) for evolved in (True, False) for n1 in (0, 1) for n2 in (0, 1)
    }
    for scenario in scenarios:
        want = real_coordinate_invariant(scenario)
        got = scenario.pairing_invariant().invariant
        assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    occupation=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
    centers=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    theta1=st.floats(-math.pi, math.pi),
    theta2=st.floats(-math.pi, math.pi),
)
def test_pairing_matches_real_coordinate_oracle_property(occupation, centers, theta1, theta2):
    vertex = (PhaseSpacePoint(*centers[:2]), PhaseSpacePoint(*centers[2:]))
    scenario = PhaseScenario.evolved(occupation, vertex, theta1, theta2)
    want = real_coordinate_invariant(scenario)
    got = scenario.pairing_invariant().invariant
    # relative where |invariant| >= 1; an invariant crossing zero has no relative scale
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def engine_pairing(ps, maps):
    """oracles.pair_product of three P objects against the kernel cycle under
    the label maps L, as the dense form [[L† W L, 0], [0, 0]] over the six P
    variables and the constant: W is -1 on each slot's own block and 1 on the
    block of slot i's zbar and slot i + 1's z."""
    lift = np.zeros((6, 6), dtype=complex)
    for i, m in enumerate(maps):
        lift[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = m
    weights = np.kron(np.roll(np.eye(3), 1, axis=1) - np.eye(3), np.eye(2))
    form = np.zeros((7, 7), dtype=complex)
    form[:6, :6] = lift.conj().T @ weights @ lift
    return oracles.pair_product(ps, oracles.GaussianFunction(form))


def assert_matches_where_defined(got, want, rel):
    if abs(want) > 1e-9:
        assert abs(got - want) <= rel * abs(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    occupation=occupations_strategy,
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
)
def test_chain_route_matches_the_general_engine(occupation, centers, theta1, theta2):
    scenario = PhaseScenario.evolved(occupation, vertex_from(centers), theta1, theta2)
    m1 = label_map_matrix(theta1)
    state = scenario.initial_state
    want = engine_pairing((mehta_p_function(state.occupation, state.centers),) * 3,
                          (np.eye(2), m1, m1 @ label_map_matrix(theta2)))
    assert_matches_where_defined(scenario.pairing_invariant().invariant, want, 1e-10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    occupations=st.lists(occupations_strategy, min_size=3, max_size=3),
    centers=st.lists(st.floats(-2.0, 2.0), min_size=12, max_size=12),
)
def test_triangle_route_matches_the_general_engine(occupations, centers):
    # mixed occupations as well: the edge factors take any pair of them
    specs = [StateSpec(occ, *vertex_from(centers[4 * i : 4 * i + 4])) for i, occ in enumerate(occupations)]
    want = engine_pairing([mehta_p_function(s.occupation, s.centers) for s in specs], (np.eye(2),) * 3)
    assert_matches_where_defined(phase_space_trace(*specs).invariant, want, 1e-10)
    if len(set(occupations)) == 1:
        scenario = PhaseScenario.independent(occupations[0], *(s.centers for s in specs))
        assert_matches_where_defined(scenario.pairing_invariant().invariant, want, 1e-10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    occupation=occupations_strategy,
    scale=st.sampled_from([0.35, 2.0, 6.0]),
    unit=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
)
def test_chain_route_matches_the_exact_chain(occupation, scale, unit, theta1, theta2):
    # beyond the Fock oracle's reach: at scale 6, |z| runs to 8.5
    scenario = PhaseScenario.evolved(occupation, vertex_from([scale * x for x in unit]), theta1, theta2)
    assert_matches_where_defined(scenario.pairing_invariant().invariant, exact_chain(scenario), 1e-11)


def test_cycle_contraction_on_floats_and_on_a_grid():
    # the states pair as their P objects do in the general engine: a triangle of
    # mixed occupations, one of them the vacuum, on floats, and a grid of chains,
    # whose points keep the bits of their cycle alone
    shift = (PhaseSpacePoint(0.3, -0.2), PhaseSpacePoint(0.1, 0.25))
    states = (StateSpec((1, 0), *shift), StateSpec((0, 0), shift[1], ORIGIN),
              StateSpec((1, 1), shift[1], shift[0]))
    ps = [mehta_p_function(s.occupation, s.centers) for s in states]
    want = engine_pairing(ps, (np.eye(2),) * 3)
    got = geomphase._cycle_pairings(tuple(map(geomphase._slot, states)), geomphase._TRIANGLE_EDGES)
    assert len(got) == 1 and abs(got[0] - want) <= 1e-12 * abs(want)
    thetas1, thetas2 = [0.3, -1.1], [0.7, 2.0, 4.5]
    chain = (geomphase._slot(states[2]),) * 3
    grid = geomphase._cycle_pairings(
        chain, geomphase._chain_edges(geomphase._chain_trig(thetas1, thetas2)), (2, 3))
    alone = [geomphase._cycle_pairings(chain, geomphase._chain_edges(geomphase._single_trig(t1, t2)))[0]
             for t1 in thetas1 for t2 in thetas2]
    assert [(z.real.hex(), z.imag.hex()) for z in grid] == [(z.real.hex(), z.imag.hex()) for z in alone]
    m = label_map_matrix(thetas1[1])
    want = engine_pairing((ps[2],) * 3, (np.eye(2), m, m @ label_map_matrix(thetas2[2])))
    assert abs(grid[-1] - want) <= 1e-12 * abs(want)


def test_kernel_cycle_factors_of_a_triangle():
    # the coherent triple product, times 1 - |Delta|^2 per edge for each occupied
    # mode; the sign-flip triangle of closed_form_audit has one negative factor
    a = (ORIGIN, ORIGIN)
    b = (PhaseSpacePoint(1.3, 0.1), PhaseSpacePoint(0.1, 0.0))
    c = (PhaseSpacePoint(0.4, -0.1), PhaseSpacePoint(0.0, 0.1))
    labels = [tuple(p.to_complex() for p in v) for v in (a, b, c)]
    coherent = oracles.triple_invariant_independent([(0, 0)] * 3, labels)
    factors = [[1.0 - abs(labels[(i + 1) % 3][mode] - labels[i][mode]) ** 2 for i in range(3)]
               for mode in (0, 1)]
    for occupation in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        want = coherent * math.prod(f for mode in (0, 1) if occupation[mode] for f in factors[mode])
        got = PhaseScenario.independent(occupation, a, b, c).pairing_invariant().invariant
        assert abs(got - want) <= 1e-14
    assert [sum(f < 0 for f in mode) for mode in factors] == [1, 0]


def test_wirtinger_form_of_single_photons_is_one_term():
    # (1/4)(d_q^2 + d_p^2) = d_z d_zbar per mode: the P of |1, 1> is born as
    # one term with z and zbar derivatives on both modes (the pfunc schema's
    # (q, p) terms are tied to the real-coordinate oracle in test_pdistribution)
    shift = (PhaseSpacePoint(0.3, -0.1), ORIGIN)
    p = mehta_p_function((1, 1), shift=shift)
    assert p.terms == ((1.0, (0.3 - 0.1j, 0j), (0, 1), (0, 1)),)
    # as the second P object of a pairing its variables are 2 and 3
    assert oracles._product_vars((((), ()), p.terms[0][2:])) == ((2, 3), (2, 3))
    vacuum = mehta_p_function((0, 0))
    assert vacuum.terms == ((1.0, (0j, 0j), (), ()),)


def test_evolved_pairing_zero_angles_gives_unit_invariant():
    scenario = PhaseScenario.evolved((1, 1), (PhaseSpacePoint(0.25, 0.0), PhaseSpacePoint(0.0, -0.2)),
                                     0.0, 0.0)
    res = scenario.pairing_invariant()
    assert abs(res.invariant - 1.0) < 1e-12
    assert res.phase == pytest.approx(0.0, abs=1e-12)


def test_evolved_triangle_vertices_follow_label_map():
    scenario = PhaseScenario.evolved((1, 1), (PhaseSpacePoint(1.0, 0.0), ORIGIN), math.pi / 2, 0.0)
    a, b, c = scenario._vertices
    assert a == (1.0, 0.0, 0.0, 0.0)
    assert b == pytest.approx((0.0, 0.0, 0.0, -1.0), abs=1e-15)
    # theta2 = 0 keeps the third vertex equal to the second
    assert c == pytest.approx(b, abs=1e-15)


def test_transcribed_kernel_fails_equal_states_sanity():
    # the verbatim kernel transcription is kept in the real-coordinate oracle for
    # the audit trail; its asymmetric second-order block breaks the Tr(rho^3) = 1
    # sanity bound that the library's kernel satisfies
    s = spec((1, 1), 0.2, 0.1)
    assert abs(phase_space_trace(s, s, s).invariant - 1.0) < 1e-12
    state = ((1, 1), (s.center1.q, s.center1.p, s.center2.q, s.center2.p))
    transcribed = oracles.real_coordinate_pairing((state,) * 3, (np.eye(2),) * 3, "transcribed")
    assert abs(transcribed - 1.0) > 0.1


def test_closed_form_terms_hand_worked_triangle():
    # mode-1 vertices (0,0), (1,0), (0,1), mode 2 at the origin:
    # cycle = 1, x1 = y1 = 1, x2 = 1, y2 = 0
    vertices = ((ORIGIN, ORIGIN), (PhaseSpacePoint(1.0, 0.0), ORIGIN), (PhaseSpacePoint(0.0, 1.0), ORIGIN))
    terms = geomphase._mode_terms(*(geomphase._coordinates(v) for v in vertices))
    assert terms == (1.0, 1.0, 1.0, 1.0, 0.0)
    want = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0 + math.pi / 4, (1, 1): 1.0 + math.pi / 4}
    for occupation, phase in want.items():
        res = PhaseScenario.independent(occupation, *vertices).printed_invariant()
        assert res.phase == pytest.approx(phase, abs=1e-15)


def test_closed_form_origin_triangle_is_zero():
    for occupation in [(0, 0), (1, 1)]:
        res = PhaseScenario.independent(occupation, *((ORIGIN, ORIGIN),) * 3).printed_invariant()
        assert res.phase == 0.0
        assert res.invariant == 1.0 + 0.0j


def test_closed_form_vacuum_reduction_is_exact():
    # with no occupied mode the form is the bilinear sum, which is the
    # exact coherent-state phase
    rng = np.random.default_rng(103)
    for _ in range(10):
        scenario = PhaseScenario.independent(
            (0, 0),
            *(
                (PhaseSpacePoint(*rng.uniform(-0.6, 0.6, 2)), PhaseSpacePoint(*rng.uniform(-0.6, 0.6, 2)))
                for _ in range(3)
            ),
        )
        printed = scenario.printed_invariant().phase
        exact = scenario.coherent_invariant().phase
        assert circular_delta(printed, exact) < 1e-12


def test_geometric_phase_unit_modulus():
    scenario = PhaseScenario.independent(
        (1, 1),
        (PhaseSpacePoint(0.3, 0.1), ORIGIN),
        (PhaseSpacePoint(-0.2, 0.4), PhaseSpacePoint(0.1, 0.0)),
        (ORIGIN, PhaseSpacePoint(0.2, -0.3)),
    )
    res = scenario.printed_invariant()
    assert abs(res.invariant) == pytest.approx(1.0, rel=1e-15)
    assert res.phase == pytest.approx(cmath.phase(res.invariant), abs=1e-12)


def test_circular_delta_wraps():
    assert circular_delta(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02, abs=1e-12)
    assert circular_delta(0.3, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert circular_delta(0.0, math.pi) == pytest.approx(math.pi, abs=1e-15)


def test_method_reconciliation_ok_on_vacuum_triangle():
    scenario = PhaseScenario.independent(
        (0, 0),
        (ORIGIN, ORIGIN),
        (PhaseSpacePoint(1.0, 0.0), ORIGIN),
        (PhaseSpacePoint(0.0, 1.0), ORIGIN),
    )
    row = method_reconciliation(scenario, dim=TruncationDim(20))
    assert row.flag == "ok"
    assert set(row.results) == {
        "fock_oracle",
        "phase_space_pairing",
        "coherent_closed_form",
        "printed_closed_form",
    }
    for method in row.results:
        assert row.phase_of(method) == pytest.approx(1.0, abs=1e-7)
    assert row.abs_delta_max <= 1e-6


def test_method_reconciliation_occupied_reports_printed_delta():
    scenario = PhaseScenario.evolved(
        (1, 1), (PhaseSpacePoint(0.3, 0.0), PhaseSpacePoint(0.0, 0.2)), 0.9, 1.1
    )
    row = method_reconciliation(scenario, dim=TruncationDim(25))
    assert row.flag == "ok"
    assert "coherent_closed_form" not in row.results
    assert "fock_oracle|phase_space_pairing" in row.deltas
    # the reference form's delta is recorded but kept out of the gate
    assert "phase_space_pairing|printed_closed_form" in row.deltas
    assert row.abs_delta_max <= 1e-6


@pytest.mark.parametrize("occupation, flag", [((0, 0), "disagree"), ((1, 1), "ok")])
def test_method_reconciliation_gates_printed_form_only_for_vacuum(occupation, flag):
    # a printed phase 0.1 rad off is recorded either way, and fails the gate
    # only for occupation (0, 0), where the printed form is exact
    scenario = PhaseScenario.evolved(
        occupation, (PhaseSpacePoint(0.3, 0.0), PhaseSpacePoint(0.0, 0.2)), 0.9, 1.1
    )
    base = method_reconciliation(scenario, dim=TruncationDim(20))
    printed = base.results["printed_closed_form"]
    results = {**base.results, "printed_closed_form": dataclasses.replace(
        printed, invariant=printed.invariant * cmath.exp(0.1j), phase=printed.phase + 0.1
    )}
    row = method_reconciliation(scenario, dim=TruncationDim(20), results=results)
    assert row.flag == flag
    pair = "fock_oracle|printed_closed_form"
    assert abs(abs(row.deltas[pair] - base.deltas[pair]) - 0.1) <= 1e-9
    gated = [d for name, d in row.deltas.items() if flag == "disagree" or "printed" not in name]
    assert row.abs_delta_max == max(gated)


def test_method_reconciliation_undefined_propagates():
    # |Delta| = 1 on an occupied mode zeroes the (1 - |Delta|^2) overlap
    # factor, so every invariant vanishes and no phase is defined
    scenario = PhaseScenario.independent(
        (1, 1),
        (ORIGIN, ORIGIN),
        (PhaseSpacePoint(1.0, 0.0), ORIGIN),
        (PhaseSpacePoint(0.0, 1.0), ORIGIN),
    )
    row = method_reconciliation(scenario, dim=TruncationDim(20))
    assert row.flag == "undefined"
    assert row.abs_delta_max is None
    assert row.deltas == {}
    assert row.phase_of("fock_oracle") is None
    assert row.phase_of("printed_closed_form") is None


def test_random_scenario_generators_are_seeded_and_bounded():
    a = random_evolved_scenarios(6, seed=5)
    b = random_evolved_scenarios(6, seed=5)
    assert a == b
    assert a != random_evolved_scenarios(6, seed=6)
    for scenario in a:
        assert scenario.is_evolved
        assert 0.0 <= scenario.theta1 < math.pi
        assert 0.0 <= scenario.theta2 < math.pi
        for pt in scenario.vertex_a:
            assert abs(pt.q) <= 0.35 and abs(pt.p) <= 0.35
    c = random_independent_scenarios(4, seed=9)
    assert c == random_independent_scenarios(4, seed=9)
    for scenario in c:
        assert not scenario.is_evolved
        assert scenario.vertex_b is not None and scenario.vertex_c is not None


def test_run_reconciliation_small_suite_all_ok():
    scenarios = random_evolved_scenarios(3, seed=21) + random_independent_scenarios(3, seed=22)
    report = run_reconciliation(scenarios, dim=TruncationDim(22), tolerance=1e-6)
    assert report.all_ok
    assert report.disagreements == 0
    assert len(report.rows) == 6
    assert report.n_max == 22


def test_closed_form_audit_quantifies_discrepancy():
    scenarios = random_independent_scenarios(10, seed=33) + random_evolved_scenarios(6, seed=34)
    report = run_reconciliation(scenarios, dim=TruncationDim(22))
    audit = closed_form_audit(report)
    assert audit["vacuum_abs_delta"]["count"] > 0
    assert audit["occupied_abs_delta"]["count"] > 0
    assert audit["vacuum_abs_delta"]["max"] < 1e-9
    assert audit["occupied_abs_delta"]["max"] > 1e-3
    ratio = audit["small_displacement_phase_ratio"]
    assert ratio["count"] >= 6
    assert 1.8 < ratio["mean"] < 2.2
    flip = audit["sign_flip_probe"]
    assert flip["abs_delta"] is not None
    assert flip["abs_delta"] > 2.5
    assert "finding" in audit
