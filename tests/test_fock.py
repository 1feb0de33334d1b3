import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bargmann_phase.fock import (
    PhaseResult,
    TruncationDim,
    chain_invariant,
    chain_invariants,
    chain_weights,
    evolve,
    phase_result,
    polarizer_unitary,
    principal_phase,
    single_mode_displacement,
    triangle_invariant,
    triple_product_trace,
)
from oracles import (
    density_operator,
    displaced_fock_density,
    displaced_fock_state,
    displaced_fock_states,
    evolve_state,
    triple_overlap,
)


def test_truncation_dim_layout():
    dim = TruncationDim(3)
    assert dim.states_per_mode == 4
    assert dim.dim == 16
    assert dim.index(0, 0) == 0
    assert dim.index(1, 2) == 6
    assert dim.index(3, 3) == 15
    with pytest.raises(ValueError):
        dim.index(4, 0)
    with pytest.raises(ValueError):
        TruncationDim(0)


def joint_annihilation(mode, dim):
    """The annihilation operator of mode 1 or 2 on the box, a (x) 1 or 1 (x) a."""
    a, eye = oracles.single_mode_annihilation_reference(dim.n_max), np.eye(dim.states_per_mode)
    return np.kron(a, eye) if mode == 1 else np.kron(eye, a)


def test_mode_annihilation_action_on_basis():
    dim = TruncationDim(5)
    a1, a2 = joint_annihilation(1, dim), joint_annihilation(2, dim)
    vec = np.zeros(dim.dim)
    vec[dim.index(3, 2)] = 1.0
    out1 = a1 @ vec
    assert out1[dim.index(2, 2)] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(out1) == 1
    out2 = a2 @ vec
    assert out2[dim.index(3, 1)] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(out2) == 1


def test_polarizer_generator_from_transmission_derivative():
    # the mode-coupling direction is the angle derivative of the
    # transmission matrix at zero rotation
    for row in range(2):
        for col in range(2):
            deriv = oracles.central_difference(
                lambda t, r=row, c=col: oracles.transmission_matrix(t)[r, c], 0.0, 1
            )
            assert deriv == pytest.approx([[0, 1], [1, 0]][row][col], abs=1e-9)


@pytest.mark.parametrize("theta", [0.37, math.pi / 2, math.pi])
def test_polarizer_unitarity(theta):
    dim = TruncationDim(18)
    u = polarizer_unitary(theta, dim)
    defect = np.max(np.abs(u.conj().T @ u - np.eye(dim.dim)))
    assert defect <= 1e-10


def test_polarizer_identity_at_zero():
    dim = TruncationDim(10)
    np.testing.assert_allclose(polarizer_unitary(0.0, dim), np.eye(dim.dim), atol=1e-14)


def test_polarizer_number_conservation_exact_zeros():
    dim = TruncationDim(9)
    u = polarizer_unitary(1.3, dim)
    m = dim.states_per_mode
    totals = np.add.outer(np.arange(m), np.arange(m)).reshape(-1)
    off_sector = u[totals[:, None] != totals[None, :]]
    assert np.max(np.abs(off_sector)) == 0.0


def test_polarizer_generator_consistency():
    # dU/dtheta at 0 equals i (a1† a2 + a2† a1)
    dim = TruncationDim(8)
    h = 1e-5
    fd = (polarizer_unitary(h, dim) - polarizer_unitary(-h, dim)) / (2 * h)
    a1, a2 = joint_annihilation(1, dim), joint_annihilation(2, dim)
    gen = 1j * (a1.conj().T @ a2 + a2.conj().T @ a1)
    assert np.max(np.abs(fd - gen)) < 1e-7


@pytest.mark.parametrize("theta", [0.0, 0.37, -2.1, math.pi])
def test_evolve_state_matches_dense_polarizer(theta):
    dim = TruncationDim(25)
    rng = np.random.default_rng(17)
    psi = rng.normal(size=dim.dim) + 1j * rng.normal(size=dim.dim)
    psi /= np.linalg.norm(psi)
    want = polarizer_unitary(theta, dim).conj().T @ psi
    assert np.max(np.abs(evolve_state(psi, theta, dim) - want)) <= 1e-13
    with pytest.raises(ValueError):
        evolve_state(psi[:-1], theta, dim)


def test_polarizer_sectors_reject_non_orthogonal_basis(monkeypatch):
    # the dense polarizer takes each sector's basis from eigh; a skewed basis
    # makes a matrix that is not unitary, and evolve rejects it
    real_eigh = np.linalg.eigh

    def skewed_eigh(t):
        vals, vecs = real_eigh(t)
        return vals, vecs * 1.001

    dim = TruncationDim(7)
    rho = density_operator(displaced_fock_state(0.1, 0, 0.2j, 0, dim), dim)
    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    with pytest.raises(ValueError, match="not unitary"):
        evolve(rho, polarizer_unitary(0.5, dim))


def sector_generator(total, n_max):
    """The polarizer generator on sector N = total, in the basis |n1, N - n1>."""
    occ1 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
    off = np.sqrt((occ1[:-1] + 1.0) * (total - occ1[:-1]))
    return occ1, np.diag(off, 1) + np.diag(off, -1)


def spectral_weights(psi, dim):
    """The weights of psi on the generator's eigenvalues k over the sectors
    N <= n_max, from one eigh per sector, in chain_weights' order
    (k = 1..n_max, then -1..-n_max, then 0)."""
    n = dim.n_max
    p = np.zeros(2 * n + 1)
    for total in range(n + 1):
        occ1, t = sector_generator(total, n)
        vals, vecs = np.linalg.eigh(t)
        ks = np.rint(vals).astype(int)
        slots = np.where(ks > 0, ks - 1, np.where(ks < 0, n - 1 - ks, 2 * n))
        np.add.at(p, slots, np.abs(vecs.T @ psi[occ1 * (n + 1) + total - occ1]) ** 2)
    return p


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 25, 26, 49, 50, 100])
def test_grouped_sector_bases_match_per_sector_solves(n_max):
    # chain_weights groups every sector's weight by the eigenvalue k with one
    # bincount; one eigh per sector N <= n_max, binned by its rounded
    # eigenvalues, gives the same weights
    dim = TruncationDim(n_max)
    for z1, z2 in ((0.3 - 0.2j, 0.1 + 0.25j), (-1.2 + 0.4j, 0.7j)):
        for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
            want = spectral_weights(displaced_fock_state(z1, n1, z2, n2, dim), dim)
            assert np.max(np.abs(chain_weights(z1, n1, z2, n2, dim) - want)) <= 1e-14


# centers with w- = 0 (z1 = z2), w+ = 0 (z1 = -z2), on the real and the imaginary
# axis, with arg w+ and arg w- apart, and past the float range of |z|^2
_WEIGHT_CENTERS = (
    (0.4 - 0.3j, 0.4 - 0.3j), (0.4 - 0.3j, -0.4 + 0.3j), (0.0, 0.0),
    (0.7, -0.2), (0.5j, -0.9j), (0.6, 0.3j), (-0.8j, 1.1),
    (0.3 + 0.2j, 0.1 - 0.4j), (-1.2 + 0.4j, 0.7j), (0.9 - 0.6j, -0.4 + 1.1j),
    (1e154, 1e154j),
)


@pytest.mark.parametrize("n_max", [1, 2, 5, 25, 100])
def test_real_chain_weights_match_complex_amplitudes(n_max):
    # the phases e^{i (m - j) arg w} factored out of the amplitudes leave a real
    # ladder and one cos(Delta) cross term; the weights of the complex amplitudes
    # are the same to rounding, and far centers give exact zeros with no warning
    dim = TruncationDim(n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z1, z2 in _WEIGHT_CENTERS:
            for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
                got = chain_weights(z1, n1, z2, n2, dim)
                want = oracles.complex_chain_weights(z1, n1, z2, n2, dim)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-15, (z1, z2, n1, n2)
                if abs(z1) > 1e100:
                    assert not got.any()


@pytest.mark.parametrize("n_max", [1, 2, 7, 25, 40])
def test_polarizer_spectrum_is_exactly_symmetric(n_max):
    # a2 -> -a2 maps G to -G and D(z1, z2)|n1, n2> to (-1)^n2 D(z1, -z2)|n1, n2>,
    # so the mirrored state's weight on k is the state's weight on -k
    dim = TruncationDim(n_max)
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        p = chain_weights(0.3 + 0.2j, n1, 0.1 - 0.4j, n2, dim)
        q = chain_weights(0.3 + 0.2j, n1, -0.1 + 0.4j, n2, dim)
        mirrored = np.concatenate((p[n_max : 2 * n_max], p[:n_max], p[2 * n_max :]))
        assert np.max(np.abs(q - mirrored)) <= 1e-15


@pytest.mark.parametrize("n_max", [10, 25, 40, 60])
def test_full_sector_spectra_are_integers(n_max):
    # sector N <= n_max is the spin-N/2 representation: eigenvalues -N, -N+2, ..., N
    for total in range(n_max + 1):
        got = np.linalg.eigvalsh(sector_generator(total, n_max)[1])
        assert np.max(np.abs(got - np.arange(-total, total + 1, 2))) <= 1e-12
    # and chain_weights puts each state's weight on those integers, the sign of
    # k included, with no eigensolver
    dim = TruncationDim(n_max)
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        psi = displaced_fock_state(0.9 - 0.6j, n1, -0.4 + 1.1j, n2, dim)
        want = spectral_weights(psi, dim)
        assert np.max(np.abs(chain_weights(0.9 - 0.6j, n1, -0.4 + 1.1j, n2, dim) - want)) <= 1e-14


@pytest.mark.parametrize("n_max", [25, 40, 49, 50, 100])
def test_cutoff_bases_pass_no_block_above_25_to_lapack(monkeypatch, n_max):
    # LAPACK's divide-and-conquer path starts above 25, and threaded OpenBLAS
    # calls made there can stall a fresh process; the oracle has no cutoff
    # basis left, so its chains and triangles make no numpy.linalg call at all
    shapes = []

    def recorded(real):
        def wrapper(*args, **kwargs):
            shapes.extend(np.shape(a) for a in args if isinstance(a, np.ndarray))
            return real(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    dim = TruncationDim(n_max)
    weights = chain_weights(0.3, 1, 0.2j, 1, dim)
    chain_invariants(weights, [0.3, 1.1], [0.2, -2.0], dim)
    triangle_invariant([(0.1, 1, 0.2, 0), (0.3j, 1, 0.0, 0), (-0.2, 1, 0.1, 0)], dim)
    assert shapes == []


centers_strategy = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
occupations_strategy = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_max=st.sampled_from([5, 12, 25]),
    occupation=occupations_strategy,
    centers=centers_strategy,
    theta1=st.one_of(st.floats(-10.0, 10.0), st.just(1e15)),
    theta2=st.one_of(st.floats(-10.0, 10.0), st.just(1e15)),
)
def test_chain_invariant_matches_two_evolutions(n_max, occupation, centers, theta1, theta2):
    # psi1 cut to n1 + n2 <= n_max, evolved twice by the dense polarizer
    dim = TruncationDim(n_max)
    state = (complex(*centers[:2]), occupation[0], complex(*centers[2:]), occupation[1])
    psi1 = displaced_fock_state(*state, dim)
    psi2 = evolve_state(psi1, theta1, dim)
    want = triple_overlap(psi1, psi2, evolve_state(psi2, theta2, dim)).invariant
    weights = chain_weights(*state, dim)
    assert abs(chain_invariant(weights, theta1, theta2, dim).invariant - want) <= 1e-13


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 30),
    occupation=occupations_strategy,
    centers=centers_strategy,
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
    k=st.integers(-10**6, 10**6),
)
def test_chain_invariant_is_2pi_periodic(n_max, occupation, centers, theta1, theta2, k):
    # the spectrum is the integers -n_max..n_max, so the chain is 2 pi periodic
    dim = TruncationDim(n_max)
    shifted = theta1 + k * math.tau
    # the float shifted misses theta1 + 2 pi k by at most this; the invariant
    # moves by at most 2 max|k| = 2 n_max per radian of theta1
    angle_error = 3e-16 * (abs(theta1) + math.tau * abs(k))
    weights = chain_weights(complex(*centers[:2]), occupation[0], complex(*centers[2:]), occupation[1], dim)
    got = chain_invariant(weights, shifted, theta2, dim).invariant
    want = chain_invariant(weights, theta1, theta2, dim).invariant
    assert abs(got - want) <= 1e-13 + 4 * n_max * angle_error


def test_chain_invariant_rejects_wrong_shape():
    dim = TruncationDim(6)
    with pytest.raises(ValueError):
        chain_invariant(chain_weights(0.1, 0, 0.0, 0, TruncationDim(5)), 0.3, 0.4, dim)


def test_sector_weights_drop_the_padding():
    # one weight per eigenvalue -n_max..n_max, nothing else; they sum to the
    # state's norm on n1 + n2 <= n_max, which is 1 - w_out
    dim = TruncationDim(7)
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        weights = chain_weights(0.9 - 0.4j, n1, 0.5j, n2, dim)
        psi = displaced_fock_state(0.9 - 0.4j, n1, 0.5j, n2, dim)
        assert weights.shape == (2 * dim.n_max + 1,)
        assert abs(weights.sum() - np.vdot(psi, psi).real) <= 1e-14
        assert weights.sum() < 1.0 - 1e-6


@pytest.mark.parametrize("n_max", [5, 12, 25])
def test_triangle_invariant_matches_state_vectors(n_max):
    # the O(n_max) pair sums give triple_overlap of the cut state vectors
    dim = TruncationDim(n_max)
    rng = np.random.default_rng(n_max)
    for _ in range(20):
        states = [(complex(*rng.uniform(-1.5, 1.5, 2)), int(rng.integers(0, 2)),
                   complex(*rng.uniform(-1.5, 1.5, 2)), int(rng.integers(0, 2))) for _ in range(3)]
        want = triple_overlap(*displaced_fock_states(states, dim)).invariant
        assert abs(triangle_invariant(states, dim).invariant - want) <= 1e-14


def test_displaced_states_are_exact_in_log_space():
    dim = TruncationDim(10)
    kept = np.add.outer(np.arange(11), np.arange(11)).ravel() <= 10
    for n1, n2 in ((0, 0), (1, 0), (0, 1), (1, 1)):
        # z = 0 gives the number state itself, bit for bit
        want = np.zeros(dim.dim, dtype=complex)
        want[dim.index(n1, n2)] = 1.0
        assert np.array_equal(displaced_fock_state(0.0, n1, 0.0, n2, dim), want)
        # exact zeros above the cut
        psi = displaced_fock_state(0.7 - 0.2j, n1, -0.3j, n2, dim)
        assert not psi[~kept].any() and psi[kept].all()
        # |z|^2 past the float range underflows to zero, with no overflow or nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            far = displaced_fock_state(1e154, n1, 1e154j, n2, dim)
            assert not far.any()
            assert chain_weights(1e154, n1, 1e154j, n2, dim).sum() == 0.0


def test_displacement_unitarity():
    dim = TruncationDim(25)
    rng = np.random.default_rng(3)
    for _ in range(4):
        z1, z2 = complex(*rng.uniform(-0.4, 0.4, 2)), complex(*rng.uniform(-0.4, 0.4, 2))
        d = np.kron(single_mode_displacement(z1, dim.n_max), single_mode_displacement(z2, dim.n_max))
        assert np.max(np.abs(d.conj().T @ d - np.eye(dim.dim))) <= 1e-10


def test_displaced_vacuum_matches_coherent_amplitudes():
    n_max = 25
    z = 0.31 - 0.22j
    col = single_mode_displacement(z, n_max)[:, 0]
    np.testing.assert_allclose(col, oracles.coherent_amplitudes(z, n_max), atol=1e-12)


def test_displacement_matches_per_z_eigh():
    # one eigenbasis of i(a† - a) per cutoff, phase-conjugated per z
    dim = TruncationDim(30)
    rng = np.random.default_rng(23)
    grid = [complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(24)]
    for z in grid + [0j, 2 + 2j, -2 + 0.5j, 1e-9j]:
        want = oracles.displacement_by_eigh(z, dim.n_max)
        assert np.max(np.abs(single_mode_displacement(z, dim.n_max) - want)) <= 1e-13
        for n in (0, 1):
            # mode 2 in vacuum at z = 0: the mode-1 column sits at stride n_max + 1
            # and holds the state's exact amplitudes, which the truncated
            # operator's columns only approximate near the cutoff
            col = displaced_fock_state(z, n, 0.0, 0, dim)[:: dim.states_per_mode]
            exact = oracles.displaced_number_amplitudes(z, n, dim.n_max)
            assert np.max(np.abs(col - exact)) <= 1e-13


def test_two_mode_coherent_state_amplitudes():
    dim = TruncationDim(20)
    z1, z2 = 0.2 + 0.1j, -0.15 + 0.25j
    vec = displaced_fock_state(z1, 0, z2, 0, dim)
    np.testing.assert_allclose(
        vec, oracles.two_mode_coherent_vector(z1, z2, dim.n_max), atol=1e-12
    )


def test_displaced_fock_overlap_laguerre_form():
    # frozen closed form at z = 0.3, z' = 0.1i: phase e^{i Im(conj(z) z')} and
    # modulus (1 - |d|^2) e^{-|d|^2 / 2} with d = z' - z, |d|^2 = 0.1
    n_max = 25
    z, zp = 0.3, 0.1j
    lhs = np.vdot(
        single_mode_displacement(z, n_max)[:, 1], single_mode_displacement(zp, n_max)[:, 1]
    )
    expected = 0.9 * math.exp(-0.05) * complex(math.cos(0.03), math.sin(0.03))
    assert abs(lhs - expected) < 1e-10
    assert abs(expected - oracles.displaced_fock_overlap(1, z, 1, zp)) < 1e-15


def test_laguerre_overlap_oracle_matches_the_displacement_matrix():
    # the oracle's closed form up to two photons, against a per-z eigendecomposition
    # of the displacement at a cutoff far above its support
    for beta in (0.3 - 0.2j, 1.1 + 0.7j, -0.4j):
        dense = oracles.displacement_by_eigh(beta, 40)
        for m in range(3):
            for n in range(3):
                assert abs(oracles.displaced_number_overlap(m, beta, n) - dense[m, n]) < 1e-12


def test_displaced_fock_overlaps_against_oracle():
    dim = TruncationDim(25)
    rng = np.random.default_rng(11)
    for _ in range(10):
        m, n = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        za, zb = complex(*rng.uniform(-0.4, 0.4, 2)), complex(*rng.uniform(-0.4, 0.4, 2))
        va = displaced_fock_state(za, m, 0.0, 0, dim)
        vb = displaced_fock_state(zb, n, 0.0, 0, dim)
        want = oracles.displaced_fock_overlap(m, za, n, zb)
        assert abs(np.vdot(va, vb) - want) < 1e-10


def test_amplitudes_issue_no_warning():
    # the truncation warning reads the proven bound in method_reconciliation;
    # amplitudes far past the cutoff's support, or well inside it, warn about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        displaced_fock_state(1.4, 0, 0.0, 0, TruncationDim(5))
        displaced_fock_state(0.4, 1, 0.0, 1, TruncationDim(25))
        chain_weights(3.0, 1, -2.0j, 1, TruncationDim(5))
        triangle_invariant([(3.0, 1, 0.0, 0), (0.0, 0, 2.0, 1), (1.0, 1, 1.0, 1)], TruncationDim(5))


def test_evolve_matches_coherent_label_map():
    from bargmann_phase.geomphase import _label_map

    dim = TruncationDim(22)
    z1, z2 = 0.21 - 0.13j, -0.08 + 0.26j
    theta = 0.83
    rho = density_operator(displaced_fock_state(z1, 0, z2, 0, dim), dim)
    evolved = evolve(rho, polarizer_unitary(theta, dim))
    # the label the routes map the coherent state to
    q1, p1, q2, p2 = _label_map((z1.real, z1.imag, z2.real, z2.imag), math.cos(theta), math.sin(theta))
    target_vec = displaced_fock_state(complex(q1, p1), 0, complex(q2, p2), 0, dim)
    target = density_operator(target_vec, dim)
    assert np.max(np.abs(evolved.matrix - target.matrix)) < 1e-10
    # the vector form carries no residual phase either
    vec = displaced_fock_state(z1, 0, z2, 0, dim)
    assert np.max(np.abs(evolve_state(vec, theta, dim) - target_vec)) < 1e-12


def test_evolve_rejects_non_unitary():
    dim = TruncationDim(6)
    rho = displaced_fock_density(0.0, 0, 0.0, 0, dim)
    with pytest.raises(ValueError):
        evolve(rho, np.eye(dim.dim) * 1.5)
    with pytest.raises(ValueError):
        evolve(rho, np.eye(4))


def test_triple_product_trace_identities():
    dim = TruncationDim(15)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rhos = [
            displaced_fock_density(
                complex(*rng.uniform(-0.3, 0.3, 2)),
                int(rng.integers(0, 2)),
                complex(*rng.uniform(-0.3, 0.3, 2)),
                int(rng.integers(0, 2)),
                dim,
            )
            for _ in range(3)
        ]
        base = triple_product_trace(*rhos)
        cyc = triple_product_trace(rhos[1], rhos[2], rhos[0])
        rev = triple_product_trace(rhos[2], rhos[1], rhos[0])
        assert abs(base.invariant - cyc.invariant) <= 1e-12
        assert abs(base.invariant - np.conjugate(rev.invariant)) <= 1e-12


def test_triple_product_trace_equal_states_is_one():
    dim = TruncationDim(18)
    rho = displaced_fock_density(0.25 + 0.1j, 1, -0.2j, 0, dim)
    res = triple_product_trace(rho, rho, rho)
    assert abs(res.invariant - 1.0) < 1e-9
    assert res.phase == pytest.approx(0.0, abs=1e-9)


def test_triple_product_trace_orthogonal_is_undefined():
    dim = TruncationDim(12)
    vac = displaced_fock_density(0.0, 0, 0.0, 0, dim)
    one = displaced_fock_density(0.0, 1, 0.0, 1, dim)
    res = triple_product_trace(vac, one, vac)
    assert res.phase is None
    assert not res.defined


def test_triple_product_trace_dim_mismatch():
    a = displaced_fock_density(0.0, 0, 0.0, 0, TruncationDim(6))
    b = displaced_fock_density(0.0, 0, 0.0, 0, TruncationDim(7))
    with pytest.raises(ValueError):
        triple_product_trace(a, a, b)


def test_triple_overlap_matches_projector_trace():
    dim = TruncationDim(15)
    rng = np.random.default_rng(5)
    for _ in range(5):
        vecs = [
            displaced_fock_state(
                complex(*rng.uniform(-0.3, 0.3, 2)),
                int(rng.integers(0, 2)),
                complex(*rng.uniform(-0.3, 0.3, 2)),
                int(rng.integers(0, 2)),
                dim,
            )
            for _ in range(3)
        ]
        rhos = [density_operator(v, dim) for v in vecs]
        got = triple_overlap(*vecs)
        assert abs(got.invariant - triple_product_trace(*rhos).invariant) <= 1e-12
        assert got.method == "fock_oracle"
    with pytest.raises(ValueError):
        triple_overlap(vecs[0], vecs[1], displaced_fock_state(0.0, 0, 0.0, 0, TruncationDim(6)))


def test_phase_result_cutoff_and_principal_branch():
    assert phase_result(1e-13 + 0j, "fock_oracle").phase is None
    assert phase_result(-1.0 + 0j, "fock_oracle").phase == pytest.approx(math.pi)
    # roundoff below the negative real axis stays on the (-pi, pi] branch
    assert phase_result(-0.0655 - 1.5e-17j, "fock_oracle").phase == math.pi
    assert phase_result(-1.0 - 1e-9j, "fock_oracle").phase == pytest.approx(-math.pi + 1e-9)
    assert principal_phase(math.pi) == math.pi
    assert principal_phase(-math.pi) == math.pi
    assert principal_phase(3 * math.pi) == pytest.approx(math.pi)
    assert principal_phase(0.25) == pytest.approx(0.25)
    explicit = phase_result(1.0 + 0j, "coherent_closed_form", phase=0.5)
    assert explicit.phase == 0.5


def test_phase_result_is_frozen_record():
    res = PhaseResult(invariant=1j, phase=math.pi / 2, method="fock_oracle")
    assert res.defined
    with pytest.raises(AttributeError):
        res.phase = 0.0
