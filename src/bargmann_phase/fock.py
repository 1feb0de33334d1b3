"""Truncated two-mode Fock-space numerics.

Basis layout, fixed for all golden files: a two-mode occupation (n1, n2)
with 0 <= n1, n2 <= n_max maps to the flat index

    index(n1, n2) = n1 * (n_max + 1) + n2

so mode-1 is the slow (row-major outer) axis. This matches the Kronecker
convention used throughout: a1 = kron(a, I), a2 = kron(I, a).

Unitaries are built from eigenpairs of Hermitian generators, so they are
exactly unitary in floating point (no series truncation). Both generators
are, up to a diagonal similarity, tridiagonal with a zero diagonal, and
_zero_diagonal_eigh takes their eigenpairs from half-size SVDs:

* the polarizer exp{i theta (a1†a2 + a2†a1)} conserves total photon
  number; its sector eigenbases are computed once per cutoff, with one
  _zero_diagonal_eigh call per half-size (sizes 2h and 2h + 1 together,
  the even one padded with a decoupled zero), and stacked, zero-padded,
  into one array (_polarizer_sectors), so every polarizer action is a few
  batched matmuls and the dense form has exact zeros between sectors;
* a displacement exp{z a† - conj(z) a} is a diagonal phase conjugation of
  exp(|z|(a† - a)), whose eigenbasis is computed once per cutoff.

The oracle works on pure-state vectors: the invariant is
<psi1|psi2><psi2|psi3><psi3|psi1> (triple_overlap). A polarizer chain
needs no evolved state: its invariant is f(theta1) f(theta2)
conj f(theta1 + theta2) with f(t) = <psi1|e^{-i t G}|psi1>, three sums
over the sector weights |V^T psi1|^2. sector_weights projects psi1 once,
and chain_invariant takes those weights, so every chain that starts from
psi1 shares one projection; chain_invariants takes a grid of angle pairs
at once, with one row of angle factors per angle. evolve_state applies
psi -> U† psi in the same basis. No dense unitary is cached; the operator forms serve the
operator identity checks.

Truncation is the only approximation. Displacements with |z| beyond
n_max/10 leak noticeable weight past the cutoff and trigger a
TruncationLeakageWarning.
"""
from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BLOCK_BYTES",
    "DISPLACEMENT_GUARD_RATIO",
    "UNDEFINED_PHASE_CUTOFF",
    "METHOD_FOCK_ORACLE",
    "METHOD_COHERENT_CLOSED_FORM",
    "METHOD_PHASE_SPACE_PAIRING",
    "METHOD_PRINTED_CLOSED_FORM",
    "TruncationLeakageWarning",
    "TruncationDim",
    "PhaseResult",
    "phase_result",
    "principal_phase",
    "mode_annihilation",
    "polarizer_generator",
    "polarizer_unitary",
    "single_mode_displacement",
    "displacement_operator",
    "displaced_fock_state",
    "displaced_fock_states",
    "coherent_state",
    "evolve_state",
    "sector_weights",
    "chain_invariant",
    "chain_invariants",
    "triple_overlap",
    "DensityOperator",
    "evolve",
    "triple_product_trace",
]

# Phases of invariants with modulus below this cutoff are reported as
# undefined (None) instead of numerical noise.
UNDEFINED_PHASE_CUTOFF = 1e-12

# Bytes allowed for any one temporary of a grid evaluated in blocks of angles
# (chain_invariants, and the pairing and printed routes of a sweep).
BLOCK_BYTES = 2 << 20

# Largest displacement magnitude considered safe at truncation n_max is
# DISPLACEMENT_GUARD_RATIO * n_max; beyond it a warning is emitted.
DISPLACEMENT_GUARD_RATIO = 0.1

METHOD_FOCK_ORACLE = "fock_oracle"
METHOD_COHERENT_CLOSED_FORM = "coherent_closed_form"
METHOD_PHASE_SPACE_PAIRING = "phase_space_pairing"
METHOD_PRINTED_CLOSED_FORM = "printed_closed_form"


class TruncationLeakageWarning(UserWarning):
    """A displacement is large enough to leak weight past the cutoff."""


@dataclass(frozen=True)
class TruncationDim:
    """Per-mode Fock cutoff n_max; the two-mode space has (n_max+1)^2 states."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def states_per_mode(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        """Flat index of |n1, n2>."""
        m = self.states_per_mode
        if not (0 <= n1 < m and 0 <= n2 < m):
            raise ValueError(f"occupation ({n1}, {n2}) outside cutoff {self.n_max}")
        return n1 * m + n2


@dataclass(frozen=True)
class PhaseResult:
    """A Bargmann invariant and its phase.

    phase is the principal argument of invariant in (-pi, pi], or None when
    the modulus is below UNDEFINED_PHASE_CUTOFF and the phase carries no
    information. method names the computation route.
    """

    invariant: complex
    phase: float | None
    method: str

    @property
    def defined(self) -> bool:
        return self.phase is not None


def principal_phase(angle: float) -> float:
    """Wrap an angle to the principal branch (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped == -math.pi:
        return math.pi
    return wrapped


def phase_result(invariant: complex, method: str, phase: float | None = None) -> PhaseResult:
    """Package an invariant, flagging near-zero modulus as undefined.

    An explicitly supplied phase (already principal) overrides the arg of
    the invariant; closed forms use this to keep exact arithmetic exact.
    A phase within 1e-12 of the cut at -pi is reported as pi, so roundoff
    cannot print a negative real invariant as -pi.
    """
    invariant = complex(invariant)
    # abs of a NaN complex can raise OverflowError when errno is left at ERANGE
    # by an earlier overflow (as np.exp leaves it), so only finite values reach it
    if cmath.isfinite(invariant) and abs(invariant) < UNDEFINED_PHASE_CUTOFF:
        return PhaseResult(invariant=invariant, phase=None, method=method)
    if phase is None:
        phase = cmath.phase(invariant)
    if phase < -math.pi + 1e-12:
        phase = math.pi
    return PhaseResult(invariant=invariant, phase=phase, method=method)


def mode_annihilation(mode: int, dim: TruncationDim) -> np.ndarray:
    """Truncated annihilation operator for mode 1 or 2 on the joint space."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    a = np.diag(np.sqrt(np.arange(1.0, dim.n_max + 1)), k=1).astype(complex)
    eye = np.eye(dim.states_per_mode)
    return np.kron(a, eye) if mode == 1 else np.kron(eye, a)


def polarizer_generator() -> np.ndarray:
    """Mode-coupling matrix of the polarizer generator, ((0, 1), (1, 0)).

    The generator itself is a1†a2 + a2†a1; this is its coefficient matrix
    in the quadratic form sum_jk G[j,k] aj†ak.
    """
    return np.array([[0.0, 1.0], [1.0, 0.0]])


def _zero_diagonal_eigh(off: np.ndarray) -> tuple:
    """Eigenpairs (vals, vecs) of real symmetric tridiagonal matrices T with zero
    diagonal and off-diagonals off (..., size - 1), from one SVD of half the size.

    In even/odd index order T is [[0, B], [B^T, 0]] with B = T[0::2, 1::2], the
    lower bidiagonal with diagonal off[0::2] and subdiagonal off[1::2], so a
    singular triplet (u, s, v) of B gives the eigenvalues +s and -s with vectors
    (u, +-v)/sqrt(2), and an odd size adds a 0 on the left null vector of B.
    The eigenvalues come as +sigma, then -sigma, then the 0 if any."""
    size = off.shape[-1] + 1
    k = size // 2
    b = np.zeros(off.shape[:-1] + (size - k, k))
    i = np.arange(k)
    b[..., i, i] = off[..., 0::2]
    b[..., i[: size - k - 1] + 1, i[: size - k - 1]] = off[..., 1::2]
    u, sigma, vt = np.linalg.svd(b)
    vals, vecs = np.zeros(off.shape[:-1] + (size,)), np.zeros(off.shape[:-1] + (size, size))
    vals[..., :k], vals[..., k : 2 * k] = sigma, -sigma
    vecs[..., 0::2, :k] = vecs[..., 0::2, k : 2 * k] = math.sqrt(0.5) * u[..., :k]
    vecs[..., 1::2, :k] = math.sqrt(0.5) * vt.swapaxes(-1, -2)
    vecs[..., 1::2, k : 2 * k] = -vecs[..., 1::2, :k]
    vecs[..., 0::2, 2 * k :] = u[..., k:]
    return vals, vecs


@lru_cache(maxsize=128)
def _polarizer_sectors(n_max: int) -> tuple:
    """Eigendecompositions of the generator restricted to each N-sector, stacked.

    Sector N has basis |n1, N-n1> for n1 in [max(0, N-n_max), min(N, n_max)]; the
    restricted generator is tridiagonal with zero diagonal and
    <n1+1, n2-1| a1†a2 |n1, n2> = sqrt((n1+1) n2). Sectors N and 2 n_max - N have
    one size, and the sectors of sizes 2h and 2h + 1 share one _zero_diagonal_eigh
    call at size 2h + 1: an even-size sector gets a zero appended to its
    off-diagonal, which adds a decoupled zero eigenvalue on an extra slot that is
    dropped. Only the largest size at odd n_max, 2h = n_max + 1, is solved
    unpadded, so every block given to LAPACK has a side of 25 or less up to
    n_max 49. Each eigenbasis V is checked orthogonal, so every
    V exp(i theta lambda) V^T is unitary.

    Returns (indices, vecs, vals, live, sigma): sector N fills the leading block
    of indices (2n_max+1, n_max+1), vecs (2n_max+1, n_max+1, n_max+1) and vals;
    padding is zero in vecs and vals and its indices point at slot
    d = (n_max+1)^2, a zero appended to the state. live holds the flat indices
    of the d slots off the padding in the order of sector_weights: +sigma, then
    -sigma in the same order, then the zeros of the odd-sized sectors.
    """
    m = n_max + 1
    totals, slot = np.arange(2 * n_max + 1), np.arange(m)
    sizes = np.minimum(totals, 2 * n_max - totals) + 1
    inside = slot < sizes[:, None]
    occ1 = np.maximum(totals - n_max, 0)[:, None] + slot
    occ2 = totals[:, None] - occ1
    indices = np.where(inside, occ1 * m + occ2, m * m)
    # off-diagonal j couples slots j and j + 1, and is zero past a sector's end
    off = np.sqrt(np.where(inside[:, 1:], (occ1[:, :-1] + 1.0) * occ2[:, :-1], 0.0))
    vecs = np.zeros((2 * n_max + 1, m, m))
    vals = np.zeros((2 * n_max + 1, m))
    halves = sizes // 2
    for h in range(m // 2 + 1):
        solve = min(2 * h + 1, m)
        group = np.flatnonzero(halves == h)
        vals_n, vecs_n = _zero_diagonal_eigh(off[group, : solve - 1])
        # a padded sector's extra slot is the last one; its row and column leave
        padded = sizes[group] < solve
        vecs_n[padded, -1] = vecs_n[padded, :, -1] = 0.0
        gram = vecs_n.swapaxes(1, 2) @ vecs_n
        gram[:, slot[:solve], slot[:solve]] -= inside[group, :solve]
        defects = np.abs(gram, out=gram).max(axis=(1, 2))
        if defects.max() > 1e-10:
            bad = defects.argmax()
            raise ValueError(f"sector {group[bad]} eigenbasis not orthogonal: {defects[bad]:.3e}")
        vecs[group, :solve, :solve] = vecs_n
        vals[group, :solve] = vals_n
    # slot kind per sector: 0 for +sigma, 1 for -sigma, 2 for a zero, 3 for padding
    kind = (slot >= halves[:, None]).astype(int) + (slot >= 2 * halves[:, None]) + ~inside
    live = np.argsort(kind, axis=None, kind="stable")[: m * m]
    sigma = vals.ravel()[live[: np.count_nonzero(kind == 0)]]
    for arr in (indices, vecs, vals, live, sigma):
        arr.flags.writeable = False
    return indices, vecs, vals, live, sigma


def _reduced_angle(theta: float) -> float:
    """theta modulo 2 pi in [-pi, pi]: sin and cos reduce exactly, theta % (2 pi)
    does not. The spectra of the full sectors N <= n_max are integers only to
    about 2.5e-14 at n_max 25, and those of the cut sectors N > n_max are not
    integers at all, so there the reduction is a convention (see
    docs/derivations.md)."""
    return math.atan2(math.sin(theta), math.cos(theta))


def _sector_coefficients(psi: np.ndarray, dim: TruncationDim) -> np.ndarray:
    """V^T psi in every sector, shape (2n_max+1, n_max+1). The real and imaginary
    parts are the two columns of one real matmul; a complex-by-real matmul
    would copy the stacked basis to complex."""
    if psi.shape != (dim.dim,):
        raise ValueError(f"vector shape {psi.shape} does not match dim {dim.dim}")
    indices, vecs = _polarizer_sectors(dim.n_max)[:2]
    gathered = np.append(np.asarray(psi, dtype=complex), 0.0)[indices]
    pairs = gathered.view(float).reshape(*indices.shape, 2)
    return (vecs.transpose(0, 2, 1) @ pairs).view(complex)[..., 0]


def polarizer_unitary(theta: float, dim: TruncationDim) -> np.ndarray:
    """exp{i theta (a1†a2 + a2†a1)} on the truncated joint space.

    Exactly unitary and exactly block diagonal over total photon number.
    Dense, for operator identities; states evolve with evolve_state.
    """
    indices, vecs, vals = _polarizer_sectors(dim.n_max)[:3]
    phases = np.exp(1j * _reduced_angle(theta) * vals)[:, None, :]
    blocks = (vecs * phases) @ vecs.transpose(0, 2, 1)
    # padding rows and columns land in row and column d, which are cut off
    u = np.zeros((dim.dim + 1, dim.dim + 1), dtype=complex)
    u[indices[:, :, None], indices[:, None, :]] = blocks
    return np.ascontiguousarray(u[:-1, :-1])


def _displacement_guard(r: float, n_max: int):
    if r > DISPLACEMENT_GUARD_RATIO * n_max:
        warnings.warn(
            f"displacement |z|={r:.3g} exceeds the guard "
            f"{DISPLACEMENT_GUARD_RATIO * n_max:.3g} at n_max={n_max}; "
            "truncation leakage may be significant",
            TruncationLeakageWarning,
            stacklevel=3,
        )


@lru_cache(maxsize=32)
def _displacement_generator_basis(n_max: int) -> tuple:
    """Eigenbasis of the Hermitian i(a† - a), shared by every displacement. With
    S = diag(i^n), S† i(a† - a) S is real tridiagonal with zero diagonal and
    off-diagonal sqrt(n), so V = S times its _zero_diagonal_eigh basis."""
    vals, vecs = _zero_diagonal_eigh(np.sqrt(np.arange(1.0, n_max + 1)))
    vecs = np.array([1, 1j, -1, -1j])[np.arange(n_max + 1) % 4, None] * vecs
    vals.flags.writeable = False
    vecs.flags.writeable = False
    return vals, vecs


def _displacement_columns(zs, cols, n_max: int) -> np.ndarray:
    """Row j is column cols[j] of D(zs[j]) = R exp(r(a† - a)) R†, z = r e^{i phi},
    R = diag(e^{i phi n}), with exp(r(a† - a)) = V e^{-i r lambda} V† in the shared
    eigenbasis. Only the requested rows of V† are scaled, and one stacked phase
    array and one product with V form every column at once."""
    zs, cols = np.asarray(zs, dtype=complex), np.asarray(cols)
    r = np.abs(zs)
    _displacement_guard(r.max(), n_max)
    vals, vecs = _displacement_generator_basis(n_max)
    scaled = vecs[cols].conj() * np.exp(-1j * np.multiply.outer(r, vals))
    phases = np.exp(1j * np.angle(zs)[:, None] * (np.arange(n_max + 1) - cols[:, None]))
    return phases * (scaled @ vecs.T)


def single_mode_displacement(z: complex, n_max: int) -> np.ndarray:
    """Truncated single-mode displacement exp{z a† - conj(z) a}."""
    return _displacement_columns(np.full(n_max + 1, complex(z)), np.arange(n_max + 1), n_max).T


def displacement_operator(z1: complex, z2: complex, dim: TruncationDim) -> np.ndarray:
    """Two-mode displacement D(z1) on mode 1 times D(z2) on mode 2."""
    d1 = single_mode_displacement(z1, dim.n_max)
    d2 = single_mode_displacement(z2, dim.n_max)
    return np.kron(d1, d2)


def displaced_fock_states(states, dim: TruncationDim) -> np.ndarray:
    """Rows D(z1, z2)|n1, n2> on the truncated joint space, one per (z1, n1, z2, n2) in
    states; one _displacement_columns call builds every mode of every state."""
    zs, cols = [], []
    for z1, n1, z2, n2 in states:
        if not (0 <= n1 <= dim.n_max and 0 <= n2 <= dim.n_max):
            raise ValueError(f"occupation ({n1}, {n2}) outside cutoff {dim.n_max}")
        zs += (z1, z2)
        cols += (n1, n2)
    modes = _displacement_columns(zs, cols, dim.n_max).reshape(-1, 2, dim.states_per_mode)
    return (modes[:, 0, :, None] * modes[:, 1, None, :]).reshape(-1, dim.dim)


def displaced_fock_state(
    z1: complex, n1: int, z2: complex, n2: int, dim: TruncationDim
) -> np.ndarray:
    """State vector D(z1, z2)|n1, n2> on the truncated joint space."""
    return displaced_fock_states([(z1, n1, z2, n2)], dim)[0]


def coherent_state(z1: complex, z2: complex, dim: TruncationDim) -> np.ndarray:
    """Two-mode coherent state vector |z1, z2> = D(z1, z2)|0, 0>."""
    return displaced_fock_state(z1, 0, z2, 0, dim)


def evolve_state(psi: np.ndarray, theta: float, dim: TruncationDim) -> np.ndarray:
    """psi -> U† psi, U = polarizer_unitary(theta, dim); the vector form of evolve.

    Per photon-number sector, U† = V exp(-i theta lambda) V^T, theta reduced
    modulo 2 pi first.
    """
    indices, vecs, vals = _polarizer_sectors(dim.n_max)[:3]
    coeffs = _sector_coefficients(psi, dim) * np.exp(-1j * _reduced_angle(theta) * vals)
    pairs = coeffs.view(float).reshape(*indices.shape, 2)
    out = np.zeros(dim.dim + 1, dtype=complex)
    out[indices] = (vecs @ pairs).view(complex)[..., 0]
    return out[:-1]


def sector_weights(psi: np.ndarray, dim: TruncationDim) -> np.ndarray:
    """|V^T psi|^2 over the d live sector slots, the padding dropped: the weight of
    psi on each polarizer eigenvector, in the order of _polarizer_sectors' live."""
    live = _polarizer_sectors(dim.n_max)[3]
    return np.abs(_sector_coefficients(psi, dim).take(live)) ** 2


# chain_invariants weighs the angle rows (C, S, S, C) of theta1 by (u, -u, -v, -v),
# which this matrix forms from the weights (w_+, w_-)
_CHAIN_SIGNS = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
_CHAIN_ROWS = np.array([0, 1, 1, 0])


def _angle_factors(reduced, sigma: np.ndarray, out: np.ndarray):
    """Write the rows (cos r sigma, sin r sigma), the real and minus the imaginary
    part of e^{-i r sigma}, to out, one (2, k) row per reduced angle r."""
    phase = np.multiply.outer(reduced, sigma)
    np.cos(phase, out=out[:, 0])
    np.sin(phase, out=out[:, 1])


def chain_invariants(
    weights: np.ndarray, thetas1, thetas2, dim: TruncationDim
) -> np.ndarray:
    """chain_invariant over the grid thetas1 x thetas2, as an (n1, n2) array.

    With u = w_+ + w_- and v = w_+ - w_-, f(t) = w_0 + u·C - i v·S with
    (C, S) = (cos t sigma, sin t sigma), one row per reduced angle. The third
    factor takes the product e1 e2 of the angle factors, never the float sum
    of the angles: f12 = w_0 + u·(C1 C2 - S1 S2) - i v·(S1 C2 + C1 S2). So one
    real einsum of the theta1 rows (u C1, -u S1) and (-v S1, -v C1) with the
    theta2 rows (C2, S2) gives every f12; the zero angle, (C, S) = (1, 0),
    on each side gives f1 and f2 in the same einsum.

    The grid goes in blocks of angles so that no temporary exceeds BLOCK_BYTES.
    A point's sums do not depend on the block around it, and the products of
    the three complex factors are Python's, one point at a time (numpy's
    complex product fuses in some of its loops and not in others), so a 1 x 1
    grid gives the same bits as any grid.
    """
    live, sigma = _polarizer_sectors(dim.n_max)[3:]
    if weights.shape != live.shape:
        raise ValueError(f"weights shape {weights.shape} does not match dim {dim.dim}")
    k = len(sigma)
    w0 = sum(weights[2 * k :].tolist())
    # (u, -u, -v, -v) from (w_+, w_-): each row is a sum or difference of two
    weighted = np.einsum("ij,jk->ik", _CHAIN_SIGNS, weights[: 2 * k].reshape(2, k))
    r1, r2 = ([_reduced_angle(t) for t in thetas] for thetas in (thetas1, thetas2))
    # theta1 rows of the (rows + 1, 4, k) weighted rows, and theta2 rows of the
    # (rows + 1 + cols, 2, k) angle rows and the (rows + 1, 2, cols + 1) sums
    rows = max(1, BLOCK_BYTES // (32 * k) - 1)
    cols = max(1, min(BLOCK_BYTES // (16 * k) - rows - 1, BLOCK_BYTES // (16 * rows + 16) - 1))
    out = np.empty((len(r1), len(r2)), dtype=complex)
    for i, j in itertools.product(range(0, len(r1), rows), range(0, len(r2), cols)):
        angles1, angles2 = r1[i : i + rows], r2[j : j + cols]
        b1, b2 = len(angles1), len(angles2)
        # the zero angle's row is (1, 0), exactly its cos and sin
        e = np.empty((b1 + 1 + b2, 2, k))
        e[b1, 0], e[b1, 1] = 1.0, 0.0
        _angle_factors(angles1, sigma, e[:b1])
        _angle_factors(angles2, sigma, e[b1 + 1 :])
        # theta1 rows (u C1, -u S1) and (-v S1, -v C1), the zero angle's last
        a = e[: b1 + 1, _CHAIN_ROWS] * weighted
        sums = np.einsum("ipk,jk->ipj", a.reshape(b1 + 1, 2, 2 * k), e[b1:].reshape(b2 + 1, 2 * k))
        # f[i][1 + j] is f12 of the block's angles, f[i][0] is f1, f[-1][1 + j] is f2
        f = [[complex(w0 + x, y) for x, y in zip(xs, ys)] for xs, ys in sums.tolist()]
        f2 = f[-1][1:]
        out[i : i + b1, j : j + b2] = [
            [row[0] * b * c.conjugate() for b, c in zip(f2, row[1:])] for row in f[:-1]
        ]
    return out


def chain_invariant(
    weights: np.ndarray, theta1: float, theta2: float, dim: TruncationDim
) -> PhaseResult:
    """triple_overlap of psi1, psi2 = evolve_state(psi1, theta1), evolve_state(psi2, theta2),
    from weights = sector_weights(psi1, dim).

    All three states share the generator's eigenbasis, so the invariant is
    f(theta1) f(theta2) conj f(theta1 + theta2) with
    f(theta) = <psi1|e^{-i theta G}|psi1> = sum_k w_k e^{-i theta lambda_k}
    over the live eigenvalues. These are +sigma, -sigma and zeros, so
    f = w_0 + sum (w_+ e + w_- conj e) with e = e^{-i theta sigma}, and only
    the sigma half is exponentiated. This is the 1 x 1 grid of chain_invariants.
    """
    invariant = chain_invariants(weights, (theta1,), (theta2,), dim)[0, 0]
    return phase_result(invariant, METHOD_FOCK_ORACLE)


def triple_overlap(psi1: np.ndarray, psi2: np.ndarray, psi3: np.ndarray) -> PhaseResult:
    """Tr(rho1 rho2 rho3) of pure states: <psi1|psi2><psi2|psi3><psi3|psi1>."""
    if not (psi1.shape == psi2.shape == psi3.shape):
        raise ValueError("state vectors live on different truncations")
    inv = np.vdot(psi1, psi2) * np.vdot(psi2, psi3) * np.vdot(psi3, psi1)
    return phase_result(inv, METHOD_FOCK_ORACLE)


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix on the truncated joint space, with its cutoff."""

    matrix: np.ndarray
    dim: TruncationDim

    @classmethod
    def from_state_vector(cls, vec: np.ndarray, dim: TruncationDim) -> "DensityOperator":
        vec = np.asarray(vec, dtype=complex)
        if vec.shape != (dim.dim,):
            raise ValueError(f"vector shape {vec.shape} does not match dim {dim.dim}")
        return cls(matrix=np.outer(vec, vec.conj()), dim=dim)

    @classmethod
    def displaced_fock(
        cls, z1: complex, n1: int, z2: complex, n2: int, dim: TruncationDim
    ) -> "DensityOperator":
        return cls.from_state_vector(displaced_fock_state(z1, n1, z2, n2, dim), dim)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    def validate(
        self,
        *,
        herm_tol: float = 1e-10,
        trace_tol: float = 1e-8,
        purity_tol: float | None = 1e-8,
    ):
        """Check hermiticity, trace and (optionally) purity; raise on failure.

        The trace of a truncated pure state sits in [1 - leakage, 1]; the
        tolerance bounds the acceptable leakage below 1 and only float
        roundoff is allowed above.
        """
        m = self.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > herm_tol:
            raise ValueError(f"not hermitian: max |rho - rho†| = {herm:.3e}")
        tr = float(np.trace(m).real)
        if not (1.0 - trace_tol <= tr <= 1.0 + 1e-12):
            raise ValueError(f"trace {tr!r} outside [1 - {trace_tol:.1e}, 1]")
        if purity_tol is not None:
            sq = m @ m
            dev = float(np.max(np.abs(sq - m)))
            if dev > purity_tol:
                raise ValueError(f"not pure: max |rho^2 - rho| = {dev:.3e}")


def evolve(rho: DensityOperator, u: np.ndarray, *, unitarity_tol: float = 1e-10) -> DensityOperator:
    """Heisenberg-convention update rho -> u† rho u.

    With u = polarizer_unitary(theta), coherent labels transform by the
    matching label map (see coherent.polarizer_label_map).
    """
    n = rho.dim.dim
    if u.shape != (n, n):
        raise ValueError(f"unitary shape {u.shape} does not match dim {n}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > unitarity_tol:
        raise ValueError(f"matrix is not unitary: max |u†u - 1| = {defect:.3e}")
    return DensityOperator(matrix=u.conj().T @ rho.matrix @ u, dim=rho.dim)


def triple_product_trace(
    r1: DensityOperator, r2: DensityOperator, r3: DensityOperator
) -> PhaseResult:
    """Bargmann invariant Tr(rho1 rho2 rho3) and its phase.

    Cyclic in its arguments; swapping any two conjugates the invariant.
    """
    if not (r1.dim == r2.dim == r3.dim):
        raise ValueError("density operators live on different truncations")
    inv = complex(np.einsum("ij,jk,ki->", r1.matrix, r2.matrix, r3.matrix, optimize=True))
    return phase_result(inv, METHOD_FOCK_ORACLE)
