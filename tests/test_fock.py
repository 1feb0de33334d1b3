import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bargmann_phase import fock
from bargmann_phase.fock import (
    DensityOperator,
    PhaseResult,
    TruncationDim,
    TruncationLeakageWarning,
    chain_invariant,
    coherent_state,
    displaced_fock_state,
    displacement_operator,
    evolve,
    evolve_state,
    mode_annihilation,
    phase_result,
    polarizer_generator,
    polarizer_unitary,
    principal_phase,
    sector_weights,
    single_mode_displacement,
    triple_overlap,
    triple_product_trace,
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


def test_mode_annihilation_matches_reference():
    dim = TruncationDim(7)
    ref = oracles.single_mode_annihilation_reference(7)
    eye = np.eye(8)
    np.testing.assert_allclose(mode_annihilation(1, dim), np.kron(ref, eye), atol=0)
    np.testing.assert_allclose(mode_annihilation(2, dim), np.kron(eye, ref), atol=0)
    with pytest.raises(ValueError):
        mode_annihilation(3, dim)


def test_mode_annihilation_action_on_basis():
    dim = TruncationDim(5)
    a1, a2 = mode_annihilation(1, dim), mode_annihilation(2, dim)
    vec = np.zeros(dim.dim)
    vec[dim.index(3, 2)] = 1.0
    out1 = a1 @ vec
    assert out1[dim.index(2, 2)] == pytest.approx(math.sqrt(3))
    assert np.count_nonzero(out1) == 1
    out2 = a2 @ vec
    assert out2[dim.index(3, 1)] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(out2) == 1


def test_polarizer_generator_matrix():
    np.testing.assert_array_equal(polarizer_generator(), [[0.0, 1.0], [1.0, 0.0]])


def test_polarizer_generator_from_transmission_derivative():
    # the mode-coupling direction is the angle derivative of the
    # transmission matrix at zero rotation
    for row in range(2):
        for col in range(2):
            deriv = oracles.central_difference(
                lambda t, r=row, c=col: oracles.transmission_matrix(t)[r, c], 0.0, 1
            )
            assert deriv == pytest.approx(polarizer_generator()[row, col], abs=1e-9)


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
    a1, a2 = mode_annihilation(1, dim), mode_annihilation(2, dim)
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
    real_solver = fock._zero_diagonal_eigh

    def skewed_solver(off):
        vals, vecs = real_solver(off)
        return vals, vecs * 1.001

    dim = TruncationDim(7)
    psi = coherent_state(0.1, 0.2j, dim)
    fock._polarizer_sectors.cache_clear()
    monkeypatch.setattr(fock, "_zero_diagonal_eigh", skewed_solver)
    with pytest.raises(ValueError, match="not orthogonal"):
        evolve_state(psi, 0.5, dim)


def sector_off_diagonals(n_max):
    """The off-diagonal of every polarizer sector at n_max, and of i(a† - a) after
    the similarity diag(i^n)."""
    offs = [np.sqrt(np.arange(1.0, n_max + 1))]
    for total in range(2 * n_max + 1):
        occ1 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        offs.append(np.sqrt((occ1[:-1] + 1.0) * (total - occ1[:-1])))
    return offs


def test_zero_diagonal_solver_matches_eigh():
    sizes = set()
    for n_max in range(1, 61):
        for off in sector_off_diagonals(n_max):
            t = np.diag(off, 1) + np.diag(off, -1)
            want = np.linalg.eigh(t)[0]
            vals, vecs = fock._zero_diagonal_eigh(off)
            scale = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(t @ vecs - vecs * vals)) <= 1e-12 * scale
            assert np.max(np.abs(np.sort(vals) - want)) <= 1e-12 * scale
            assert np.max(np.abs(vecs.T @ vecs - np.eye(len(t)))) <= 1e-12
            sizes.add(len(t) % 2)
    assert sizes == {0, 1}


@pytest.mark.parametrize("n_max", [1, 2, 3, 25, 26, 49])
def test_polarizer_sectors_solve_once_per_half_size(monkeypatch, n_max):
    calls = []
    real_solver = fock._zero_diagonal_eigh

    def counted(off):
        calls.append(off.shape)
        return real_solver(off)

    fock._polarizer_sectors.cache_clear()
    monkeypatch.setattr(fock, "_zero_diagonal_eigh", counted)
    fock._polarizer_sectors(n_max)
    fock._polarizer_sectors.cache_clear()
    assert len(calls) <= n_max // 2 + 2


@pytest.mark.parametrize("n_max", [1, 2, 3, 4, 25, 26, 49, 50, 100])
def test_grouped_sector_bases_match_per_sector_solves(n_max):
    # a sector solved padded, in a group, gives the eigenvalues of its own solve
    # bit for bit, and its vectors to roundoff; padding stays zero
    m = n_max + 1
    indices, vecs, vals = fock._polarizer_sectors(n_max)[:3]
    for total, off in enumerate(sector_off_diagonals(n_max)[1:]):
        size = len(off) + 1
        want_vals, want_vecs = fock._zero_diagonal_eigh(off[None])
        occ1 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        assert np.array_equal(indices[total, :size], occ1 * m + total - occ1)
        assert np.all(indices[total, size:] == m * m)
        assert vals[total, :size].tobytes() == want_vals[0].tobytes()
        assert np.max(np.abs(vecs[total, :size, :size] - want_vecs[0])) <= 1e-15
        assert not vals[total, size:].any()
        assert not vecs[total, size:].any() and not vecs[total, :, size:].any()


@pytest.mark.parametrize("n_max", [1, 2, 7, 25, 40])
def test_polarizer_spectrum_is_exactly_symmetric(n_max):
    indices, _, vals, live, sigma = fock._polarizer_sectors(n_max)
    k = len(sigma)
    flat = vals.ravel()
    assert np.all(sigma > 0)
    assert np.array_equal(flat[live[:k]], sigma)
    assert np.array_equal(flat[live[k : 2 * k]], -sigma)
    assert np.all(flat[live[2 * k :]] == 0.0)
    for total in range(2 * n_max + 1):
        size = np.count_nonzero(indices[total] < (n_max + 1) ** 2)
        assert np.array_equal(np.sort(vals[total, :size]), -np.sort(vals[total, :size])[::-1])


@pytest.mark.parametrize("n_max", [10, 25, 40, 60])
def test_full_sector_spectra_are_integers(n_max):
    # sector N <= n_max is the spin-N/2 representation: eigenvalues -N, -N+2, ..., N
    vals = fock._polarizer_sectors(n_max)[2]
    for total in range(n_max + 1):
        got = np.sort(vals[total, : total + 1])
        assert np.max(np.abs(got - np.arange(-total, total + 1, 2))) <= 1e-12


@pytest.mark.parametrize("n_max", [25, 40, 49])
def test_cutoff_bases_pass_no_block_above_25_to_lapack(monkeypatch, n_max):
    # LAPACK's divide-and-conquer path starts above 25, and threaded OpenBLAS
    # calls made there can stall a fresh process
    shapes = []

    def recorded(real):
        def wrapper(*args, **kwargs):
            shapes.extend(np.shape(a) for a in args if isinstance(a, np.ndarray))
            return real(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "eig", "eigvals", "qr", "solve", "inv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    fock._polarizer_sectors.cache_clear()
    fock._displacement_generator_basis.cache_clear()
    fock._polarizer_sectors(n_max)
    fock._displacement_generator_basis(n_max)
    assert shapes
    assert max(max(shape) for shape in shapes) <= 25


def random_state(seed, dim):
    """A normalised state with weight in every sector, the cut ones N > n_max included."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim.dim) + 1j * rng.normal(size=dim.dim)
    return psi / np.linalg.norm(psi)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 30),
    seed=st.integers(0, 2**32 - 1),
    theta1=st.one_of(st.floats(-10.0, 10.0), st.just(1e15)),
    theta2=st.one_of(st.floats(-10.0, 10.0), st.just(1e15)),
)
def test_chain_invariant_matches_two_evolutions(n_max, seed, theta1, theta2):
    dim = TruncationDim(n_max)
    psi1 = random_state(seed, dim)
    psi2 = evolve_state(psi1, theta1, dim)
    want = triple_overlap(psi1, psi2, evolve_state(psi2, theta2, dim)).invariant
    weights = sector_weights(psi1, dim)
    assert abs(chain_invariant(weights, theta1, theta2, dim).invariant - want) <= 1e-13


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_max=st.integers(5, 30),
    seed=st.integers(0, 2**32 - 1),
    theta1=st.floats(-10.0, 10.0),
    theta2=st.floats(-10.0, 10.0),
    k=st.integers(-10**6, 10**6),
)
def test_chain_invariant_is_2pi_periodic(n_max, seed, theta1, theta2, k):
    # the cut sectors' spectra are not integers, so only the exact angle
    # reduction makes the chain periodic there
    dim = TruncationDim(n_max)
    psi1 = random_state(seed, dim)
    shifted = theta1 + k * math.tau
    # the float shifted misses theta1 + 2 pi k by at most this; the invariant
    # moves by at most 2 max|lambda| <= 4 n_max per radian of theta1
    angle_error = 3e-16 * (abs(theta1) + math.tau * abs(k))
    weights = sector_weights(psi1, dim)
    got = chain_invariant(weights, shifted, theta2, dim).invariant
    want = chain_invariant(weights, theta1, theta2, dim).invariant
    assert abs(got - want) <= 1e-13 + 4 * n_max * angle_error


def test_chain_invariant_rejects_wrong_shape():
    dim = TruncationDim(6)
    with pytest.raises(ValueError):
        chain_invariant(sector_weights(coherent_state(0.1, 0.0, TruncationDim(5)), dim), 0.3, 0.4, dim)


def test_sector_weights_drop_the_padding():
    # one weight per live eigenvalue; each sector basis is orthogonal, so
    # the weights sum to |psi|^2
    dim = TruncationDim(7)
    weights = sector_weights(random_state(5, dim), dim)
    assert weights.shape == fock._polarizer_sectors(7)[3].shape == (dim.dim,)
    assert abs(weights.sum() - 1.0) <= 1e-13


def test_displacement_unitarity():
    dim = TruncationDim(25)
    rng = np.random.default_rng(3)
    for _ in range(4):
        z1, z2 = complex(*rng.uniform(-0.4, 0.4, 2)), complex(*rng.uniform(-0.4, 0.4, 2))
        d = displacement_operator(z1, z2, dim)
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
            col = displaced_fock_state(z, n, 0.0, 0, dim)[:: dim.states_per_mode]
            assert np.max(np.abs(col - want[:, n])) <= 1e-13


def test_two_mode_coherent_state_amplitudes():
    dim = TruncationDim(20)
    z1, z2 = 0.2 + 0.1j, -0.15 + 0.25j
    vec = coherent_state(z1, z2, dim)
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


def test_displacement_guard_warns():
    dim = TruncationDim(5)
    with pytest.warns(TruncationLeakageWarning):
        displaced_fock_state(1.4, 0, 0.0, 0, dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        displaced_fock_state(0.4, 1, 0.0, 1, TruncationDim(25))


def test_density_operator_validate():
    dim = TruncationDim(20)
    rho = DensityOperator.displaced_fock(0.3 - 0.1j, 1, 0.2j, 1, dim)
    rho.validate()
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)
    assert rho.purity() == pytest.approx(1.0, abs=1e-8)
    bad = DensityOperator(matrix=np.eye(dim.dim, dtype=complex) * 0.5, dim=dim)
    with pytest.raises(ValueError):
        bad.validate()
    lopsided = DensityOperator(
        matrix=np.triu(np.ones((dim.dim, dim.dim), dtype=complex)), dim=dim
    )
    with pytest.raises(ValueError):
        lopsided.validate()


def test_evolve_matches_coherent_label_map():
    from bargmann_phase.coherent import CoherentLabel, polarizer_label_map

    dim = TruncationDim(22)
    z1, z2 = 0.21 - 0.13j, -0.08 + 0.26j
    theta = 0.83
    rho = DensityOperator.from_state_vector(coherent_state(z1, z2, dim), dim)
    evolved = evolve(rho, polarizer_unitary(theta, dim))
    mapped = polarizer_label_map(theta, CoherentLabel(z1, z2))
    target_vec = coherent_state(mapped.z1, mapped.z2, dim)
    target = DensityOperator.from_state_vector(target_vec, dim)
    assert np.max(np.abs(evolved.matrix - target.matrix)) < 1e-10
    # the vector form carries no residual phase either
    vec = coherent_state(z1, z2, dim)
    assert np.max(np.abs(evolve_state(vec, theta, dim) - target_vec)) < 1e-12


def test_evolve_rejects_non_unitary():
    dim = TruncationDim(6)
    rho = DensityOperator.displaced_fock(0.0, 0, 0.0, 0, dim)
    with pytest.raises(ValueError):
        evolve(rho, np.eye(dim.dim) * 1.5)
    with pytest.raises(ValueError):
        evolve(rho, np.eye(4))


def test_triple_product_trace_identities():
    dim = TruncationDim(15)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rhos = [
            DensityOperator.displaced_fock(
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
    rho = DensityOperator.displaced_fock(0.25 + 0.1j, 1, -0.2j, 0, dim)
    res = triple_product_trace(rho, rho, rho)
    assert abs(res.invariant - 1.0) < 1e-9
    assert res.phase == pytest.approx(0.0, abs=1e-9)


def test_triple_product_trace_orthogonal_is_undefined():
    dim = TruncationDim(12)
    vac = DensityOperator.displaced_fock(0.0, 0, 0.0, 0, dim)
    one = DensityOperator.displaced_fock(0.0, 1, 0.0, 1, dim)
    res = triple_product_trace(vac, one, vac)
    assert res.phase is None
    assert not res.defined


def test_triple_product_trace_dim_mismatch():
    a = DensityOperator.displaced_fock(0.0, 0, 0.0, 0, TruncationDim(6))
    b = DensityOperator.displaced_fock(0.0, 0, 0.0, 0, TruncationDim(7))
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
        rhos = [DensityOperator.from_state_vector(v, dim) for v in vecs]
        got = triple_overlap(*vecs)
        assert abs(got.invariant - triple_product_trace(*rhos).invariant) <= 1e-12
        assert got.method == "fock_oracle"
    with pytest.raises(ValueError):
        triple_overlap(vecs[0], vecs[1], coherent_state(0.0, 0.0, TruncationDim(6)))


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
