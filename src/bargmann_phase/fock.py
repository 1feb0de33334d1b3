"""Truncated two-mode Fock-space numerics.

Basis layout, fixed for all golden files: a two-mode occupation (n1, n2)
with 0 <= n1, n2 <= n_max maps to the flat index

    index(n1, n2) = n1 * (n_max + 1) + n2

so mode-1 is the slow (row-major outer) axis. This matches the Kronecker
convention used throughout: a1 = kron(a, I), a2 = kron(I, a).

The oracle truncates by total photon number N = n1 + n2 <= n_max. A state
keeps its exact amplitudes there, <m|D(z)|0> = e^{-|z|^2/2} z^m / sqrt(m!)
and D(z)|j> = (a† - conj z)^j D(z)|0> / sqrt(j!) (Cahill & Glauber 1969),
and is zero on N > n_max; in the box layout those entries are exact zeros.
The polarizer exp{i theta G}, G = a1†a2 + a2†a1, conserves N, and in the
modes b± = (a1 ± a2)/sqrt(2) it is G = n+ - n-, so it acts exactly on the
kept sectors and its spectrum there is the integers -n_max..n_max.

A polarizer chain needs no evolved state: its invariant is f(theta1)
f(theta2) conj f(theta1 + theta2) with f(t) = <psi1|e^{-i t G}|psi1> =
sum_k p_k e^{-i t k}, a trigonometric polynomial of degree n_max whose
coefficients p_k are the weights of psi1 on n+ - n- = k. In the b modes
psi1 = D(w+) D(w-) applied to |0,0>, (|1,0> ± |0,1>)/sqrt(2) or
(|2,0> - |0,2>)/sqrt(2), w± = (z1 ± z2)/sqrt(2), so chain_weights takes p
from exact amplitudes with one bincount, and chain_invariants evaluates a
grid of angle pairs with one row of angle factors per angle. The weights
need no phase: <m|D(w)|j> = e^{i (m - j) arg w} R_j(m) with R_j real
(Cahill & Glauber), R_0 taken in log space and the levels raised by
R_j(m) = (sqrt(m) R_{j-1}(m-1) - |w| R_{j-1}(m)) / sqrt(j) (_real_levels).
The phase common to a point (m+, m-) drops out of |A|^2, and a state of
terms X_t = c_t R_{j+}(m+) R_{j-}(m-) has
|A|^2 = X_0^2 + X_1^2 + 2 cos(Delta) X_0 X_1, Delta the difference of the two
terms' phases (j+_1 - j+_0) arg w+ + (j-_1 - j-_0) arg w-. Three
independent states go through triangle_invariant, whose truncated overlaps
are O(n_max) sums over the two modes' complex amplitudes (_number_amplitudes).

Truncation is the only approximation, and its error is bounded: with
w_out = 1 - sum p the weight of psi1 on N > n_max, a chain's invariant is
within 3 w_out of the exact one, and three states with cut weights eps_i
give an invariant within the sum over pairs of sqrt(eps_i eps_j). Each
invariant comes with its bound (PhaseResult.bound), and
geomphase.method_reconciliation raises a TruncationLeakageWarning when that
bound exceeds the tolerance times |invariant|.

The polarizer's sectors N <= n_max (_polarizer_sectors) are what validate
checks: each block's unitarity, its spectrum -N, -N+2, ..., N, which
chain_weights assumes, and the routes' label map (geomphase._label_map) on
the cut amplitudes. The dense
forms on the (n_max+1)^2 box (polarizer_unitary, single_mode_displacement,
DensityOperator, evolve, triple_product_trace) are off the oracle's path,
and no command runs them; the tests compare the oracle against them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BLOCK_BYTES",
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
    "polarizer_unitary",
    "single_mode_displacement",
    "chain_weights",
    "chain_bound",
    "chain_invariant",
    "chain_invariants",
    "triangle_invariant",
    "DensityOperator",
    "evolve",
    "triple_product_trace",
]

# Phases of invariants with modulus below this cutoff are reported as
# undefined (None) instead of numerical noise.
UNDEFINED_PHASE_CUTOFF = 1e-12

# Bytes allowed for any one temporary of a sweep's grid, which
# geomphase.evolved_grid_results evaluates in blocks of angles: the Fock chain's
# arrays (chain_invariants) and the other routes' lists of Python floats.
BLOCK_BYTES = 2 << 20

METHOD_FOCK_ORACLE = "fock_oracle"
METHOD_COHERENT_CLOSED_FORM = "coherent_closed_form"
METHOD_PHASE_SPACE_PAIRING = "phase_space_pairing"
METHOD_PRINTED_CLOSED_FORM = "printed_closed_form"


class TruncationLeakageWarning(UserWarning):
    """The Fock oracle's truncation bound exceeds the tolerance times |invariant|."""


@dataclass(frozen=True)
class TruncationDim:
    """Fock cutoff n_max: the oracle keeps n1 + n2 <= n_max, laid out in the
    (n_max+1)^2 box of per-mode occupations up to n_max."""

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
    information. method names the computation route. bound is the Fock
    oracle's proven truncation bound on |invariant - exact invariant|, and None
    on the other routes.
    """

    invariant: complex
    phase: float | None
    method: str
    bound: float | None = None

    @property
    def defined(self) -> bool:
        return self.phase is not None


def principal_phase(angle: float) -> float:
    """Wrap an angle to the principal branch (-pi, pi]."""
    wrapped = math.remainder(angle, math.tau)
    if wrapped == -math.pi:
        return math.pi
    return wrapped


def phase_result(
    invariant: complex, method: str, phase: float | None = None, bound: float | None = None
) -> PhaseResult:
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
        return PhaseResult(invariant=invariant, phase=None, method=method, bound=bound)
    if phase is None:
        phase = cmath.phase(invariant)
    if phase < -math.pi + 1e-12:
        phase = math.pi
    return PhaseResult(invariant=invariant, phase=phase, method=method, bound=bound)


def _reduced_angle(theta: float) -> float:
    """theta modulo 2 pi in [-pi, pi]: sin and cos reduce exactly, theta % (2 pi)
    does not. The oracle's spectrum is the integers -n_max..n_max, so the
    reduction changes no invariant."""
    return math.atan2(math.sin(theta), math.cos(theta))


# ---------------------------------------------------------------------------
# Exact amplitudes of displaced number states


@lru_cache(maxsize=32)
def _ladder_table(n_max: int, top: int) -> tuple:
    """m = -top..n_max, log(m!)/2 there (+inf below 0, so those amplitudes are 0)
    and sqrt(max(m, 0))."""
    m = np.arange(-top, n_max + 1.0)
    half_log_fact = np.array([0.5 * math.lgamma(i + 1.0) if i >= 0 else math.inf for i in m])
    sqrt_m = np.sqrt(np.maximum(m, 0.0))
    for a in (m, half_log_fact, sqrt_m):
        a.flags.writeable = False
    return m, half_log_fact, sqrt_m


def _number_amplitudes(states, n_max: int) -> np.ndarray:
    """<m|D(z)|j> for m = 0..n_max on both modes of every (z1, j1, z2, j2) in
    states, as an array (len(states), 2, n_max + 1); one call serves a whole row.

    <m|D(z)|0> = e^{-|z|^2/2} z^m / sqrt(m!) is the exponential of its
    logarithm m log z - |z|^2/2 - log(m!)/2, so no finite z overflows, a large
    |z| underflows to zero and z = 0 gives exactly |0>; each level of
    D(z)|j> = (a† - conj z) D(z)|j-1> / sqrt(j) then raises the rows with j > 0."""
    zs = [complex(z) for s in states for z in (s[0], s[2])]
    js = [s[i] for s in states for i in (1, 3)]
    if min(js) < 0:
        raise ValueError(f"occupations must be >= 0, got {js}")
    # |z|^2, inf past the float range, where e^{-|z|^2/2} is 0 already
    squares = [z.real * z.real + z.imag * z.imag for z in zs]
    top = max(js)
    m, half_log_fact, sqrt_m = _ladder_table(n_max, top)
    # log z is -1e300 at z = 0, so that z^0 is 1 and every higher power 0
    logs = np.array([(cmath.log(z) if z else -1e300, -0.5 * sq) for z, sq in zip(zs, squares)])
    amps = np.exp(logs[:, :1] * m + (logs[:, 1:].real - half_log_fact))
    for level in range(1, top + 1):
        # new[m] = raise * sqrt(m) old[m-1] + keep * old[m], on m = level - top..n_max
        root = math.sqrt(level)
        raise_, keep = np.array([(1 / root, -z.conjugate() / root) if j >= level else (0.0, 1.0)
                                 for j, z in zip(js, zs)]).T[:, :, None]
        amps = raise_ * sqrt_m[level:] * amps[:, :-1] + keep * amps[:, 1:]
    return amps.reshape(len(states), 2, n_max + 1)


# ---------------------------------------------------------------------------
# The oracle: chains from photon-number-difference weights, triangles from
# truncated overlaps


_SQRT_HALF = math.sqrt(0.5)
# |n1, n2> in the modes b± = (a1 ± a2)/sqrt(2): (coefficient, j+, j-) terms
_B_MODE_TERMS = {
    (0, 0): ((1.0, 0, 0),),
    (1, 0): ((_SQRT_HALF, 1, 0), (_SQRT_HALF, 0, 1)),
    (0, 1): ((_SQRT_HALF, 1, 0), (-_SQRT_HALF, 0, 1)),
    (1, 1): ((_SQRT_HALF, 2, 0), (-_SQRT_HALF, 0, 2)),
}


@lru_cache(maxsize=32)
def _difference_slots(n_max: int) -> np.ndarray:
    """For the (n_max+1)^2 pairs (m+, m-), flattened, the slot of chain_weights that
    k = m+ - m- lands in: k - 1 for k > 0, n_max - 1 - k for k < 0, 2 n_max for
    k = 0, and 2 n_max + 1, a slot that is dropped, where m+ + m- > n_max."""
    m = np.arange(n_max + 1)
    k = np.subtract.outer(m, m)
    slots = np.where(k > 0, k - 1, np.where(k < 0, n_max - 1 - k, 2 * n_max))
    slots = np.where(np.add.outer(m, m) <= n_max, slots, 2 * n_max + 1).ravel()
    slots.flags.writeable = False
    return slots


def _real_levels(radii, top: int, n_max: int) -> list:
    """R_j(m) for j = 0..top and m = 0..n_max at each radius r = |w| in radii, as a
    list of top + 1 arrays (len(radii), n_max + 1), where
    <m|D(w)|j> = e^{i (m - j) arg w} R_j(m) with R_j real.

    R_0(m) = e^{-r^2/2} r^m / sqrt(m!) is the exponential of its logarithm, as in
    _number_amplitudes, and the ladder D(w)|j> = (a† - conj w) D(w)|j-1> / sqrt(j)
    keeps the phase apart: R_j(m) = (sqrt(m) R_{j-1}(m-1) - r R_{j-1}(m)) / sqrt(j)."""
    m, half_log_fact, sqrt_m = _ladder_table(n_max, top)
    # log r is -1e300 at r = 0, so that r^0 is 1 and every higher power 0
    logs = np.array([(math.log(r) if r else -1e300, -0.5 * r * r) for r in radii])
    level = np.exp(logs[:, :1] * m + (logs[:, 1:] - half_log_fact))
    levels = [level[:, top:]]
    radius = np.array(radii)[:, None]
    for j in range(1, top + 1):
        # level j on m = j - top..n_max
        level = (sqrt_m[j:] * level[:, :-1] - radius * level[:, 1:]) / math.sqrt(j)
        levels.append(level[:, top - j :])
    return levels


def chain_weights(z1: complex, n1: int, z2: complex, n2: int, dim: TruncationDim) -> np.ndarray:
    """The weights p_k of D(z1, z2)|n1, n2> on the polarizer eigenvalues k, cut to
    n1 + n2 <= n_max, as (p_1..p_n, p_-1..p_-n, p_0) with n = n_max.

    In the b modes the state is D(w+) D(w-) applied to the terms (c_t, j+, j-) of
    _B_MODE_TERMS, w± = (z1 ± z2)/sqrt(2), and the polarizer's generator is
    n+ - n-, so p is one bincount of |A|^2 over m+ - m- for m+ + m- <= n, A the
    amplitude at (m+, m-). With <m|D(w)|j> = e^{i (m - j) arg w} R_j(m)
    (_real_levels), A is e^{i (m+ arg w+ + m- arg w-)} times the sum over terms of
    e^{-i (j+ arg w+ + j- arg w-)} X_t, X_t = c_t R_{j+}(m+) R_{j-}(m-), so
    |A|^2 = X_0^2 + X_1^2 + 2 cos(Delta) X_0 X_1 with
    Delta = (j+_1 - j+_0) arg w+ + (j-_1 - j-_0) arg w-: real arithmetic throughout.
    1 - sum(p) is the weight beyond the cutoff."""
    if (n1, n2) not in _B_MODE_TERMS:
        raise ValueError(f"supported occupations are 0 and 1 per mode, got {(n1, n2)}")
    n = dim.n_max
    w_plus, w_minus = (z1 + z2) * _SQRT_HALF, (z1 - z2) * _SQRT_HALF
    terms = _B_MODE_TERMS[(n1, n2)]
    # each term holds j+ + j- = n1 + n2 photons
    levels = _real_levels((abs(w_plus), abs(w_minus)), n1 + n2, n)
    # X_s X_t = (c_s R_{j+_s} c_t R_{j+_t}) (x) (R_{j-_s} R_{j-_t}), so the sum over
    # pairs of terms is one product of a row per pair on each side
    plus = [c * levels[j][0] for c, j, _ in terms]
    minus = [levels[j][1] for _, _, j in terms]
    if len(terms) == 1:
        left, right = [plus[0] * plus[0]], [minus[0] * minus[0]]
    else:
        (_, p0, m0), (_, p1, m1) = terms
        delta = (p1 - p0) * cmath.phase(w_plus) + (m1 - m0) * cmath.phase(w_minus)
        left = [plus[0] * plus[0], plus[1] * plus[1], 2.0 * math.cos(delta) * plus[0] * plus[1]]
        right = [minus[0] * minus[0], minus[1] * minus[1], minus[0] * minus[1]]
    weights = np.array(left).T @ np.array(right)
    return np.bincount(_difference_slots(n), weights=weights.ravel(), minlength=2 * n + 2)[:-1]


def chain_bound(weights: np.ndarray) -> float:
    """The chain's truncation bound 3 w_out, w_out = 1 - sum(weights) the weight
    of psi1 beyond the cutoff: each factor f(t) loses at most w_out and |f| <= 1.
    A kept sum that rounds past 1 reads as w_out = 0."""
    return 3.0 * max(0.0, 1.0 - float(weights.sum()))


# chain_invariants weighs the angle rows (C, S, S, C) of theta1 by (u, -u, -v, -v),
# which this matrix forms from the weights (p_+, p_-)
_CHAIN_SIGNS = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 1.0], [-1.0, 1.0]])
_CHAIN_ROWS = np.array([0, 1, 1, 0])


def _chain_terms(weights: np.ndarray, k: int) -> tuple:
    """p_0 and the rows (u, -u, -v, -v) of chain_weights for n_max k."""
    if weights.shape != (2 * k + 1,):
        raise ValueError(f"weights shape {weights.shape} does not match n_max {k}")
    # each row is a sum or difference of p_+ and p_-, rounded once whatever the order
    return float(weights[2 * k]), np.dot(_CHAIN_SIGNS, weights[: 2 * k].reshape(2, k))


def chain_invariants(weights: np.ndarray, thetas1, thetas2, dim: TruncationDim) -> list:
    """chain_invariant over the grid thetas1 x thetas2, as a list of Python complex
    numbers in row-major order (theta2 fastest).

    With u = p_+ + p_- and v = p_+ - p_- over sigma = 1..n_max,
    f(t) = p_0 + u·C - i v·S with (C, S) = (cos t sigma, sin t sigma), one
    row per reduced angle. The third factor takes the product e1 e2 of the
    angle factors, never the float sum of the angles:
    f12 = p_0 + u·(C1 C2 - S1 S2) - i v·(S1 C2 + C1 S2). So one real einsum of
    the theta1 rows (u C1, -u S1) and (-v S1, -v C1) with the theta2 rows
    (C2, S2) gives every f12; the zero angle, (C, S) = (1, 0), on each side
    gives f1 and f2 in the same einsum.

    The grid is evaluated as one block. Its temporaries are the (n1 + 1, 4, n_max)
    weighted theta1 rows, the (n1 + 1 + n2, 2, n_max) angle rows and the
    (n1 + 1, 2, n2 + 1) sums, at 8 bytes an entry; geomphase.evolved_grid_results
    sizes its blocks of a sweep's grid so that none exceeds BLOCK_BYTES. A
    point's sums do not depend on the grid around it, and the products of the
    three complex factors are Python's, one point at a time (numpy's complex
    product fuses in some of its loops and not in others), so a 1 x 1 grid gives
    the same bits as any grid.
    """
    k = dim.n_max
    w0, weighted = _chain_terms(weights, k)
    angles1, angles2 = ([_reduced_angle(t) for t in thetas] for thetas in (thetas1, thetas2))
    b1 = len(angles1)
    # one row (cos r sigma, sin r sigma), the real and minus the imaginary part of
    # e^{-i r sigma}, per angle: theta1's, the zero angle's and theta2's; the zero
    # angle's row is exactly (1, 0)
    phase = np.multiply.outer(angles1 + [0.0] + angles2, np.arange(1.0, k + 1))
    e = np.empty((len(phase), 2, k))
    e[:, 0], e[:, 1] = np.cos(phase), np.sin(phase)
    # theta1 rows (u C1, -u S1) and (-v S1, -v C1), the zero angle's last
    a = e[: b1 + 1, _CHAIN_ROWS] * weighted
    sums = np.einsum("ipk,jk->ipj", a.reshape(b1 + 1, 2, 2 * k), e[b1:].reshape(-1, 2 * k))
    # f[i][1 + j] is f12 of the grid's angles, f[i][0] is f1, f[-1][1 + j] is f2
    f = [[complex(w0 + x, y) for x, y in zip(xs, ys)] for xs, ys in sums.tolist()]
    f2 = f[-1][1:]
    return [row[0] * b * c.conjugate() for row in f[:-1] for b, c in zip(f2, row[1:])]


def chain_invariant(
    weights: np.ndarray, theta1: float, theta2: float, dim: TruncationDim
) -> PhaseResult:
    """<1|2><2|3><3|1> of psi1, psi2 = U(theta1)† psi1 and psi3 = U(theta2)† psi2,
    U(t) = exp{i t G}, from the weights chain_weights gives for psi1.

    All three states share the generator's eigenbasis, so the invariant is
    f(theta1) f(theta2) conj f(theta1 + theta2) with
    f(theta) = <psi1|e^{-i theta G}|psi1> = sum_k p_k e^{-i theta k}
    = p_0 + sum_{k > 0} (p_k e + p_-k conj e), e = e^{-i theta k}. This is the
    1 x 1 grid of chain_invariants. Its bound is chain_bound(weights).
    """
    invariant = chain_invariants(weights, [theta1], [theta2], dim)[0]
    return phase_result(invariant, METHOD_FOCK_ORACLE, bound=chain_bound(weights))


# i and j of triangle_invariant's <i|j>: (0, 1), (1, 2), (2, 0), then each state with itself
_OVERLAP_PAIRS = (np.array([0, 1, 2, 0, 1, 2]), np.array([1, 2, 0, 0, 1, 2]))


def triangle_invariant(states, dim: TruncationDim) -> PhaseResult:
    """<1|2><2|3><3|1> of the three displaced number states (z1, n1, z2, n2) in
    states, each cut to n1 + n2 <= n_max, without forming the state vectors.

    A state is a product a1 (x) a2 of per-mode amplitudes, so the truncated
    overlap of states i and j is sum_m1 x[m1] Y[n_max - m1] with
    x = conj(a1_i) a1_j and Y the running sum of conj(a2_i) a2_j. The same sums
    give each state's kept norm <i|i> = 1 - eps_i, and the bound is the sum over
    pairs of sqrt(eps_i eps_j)."""
    amps = _number_amplitudes(states, dim.n_max)
    left, right = _OVERLAP_PAIRS
    products = amps[left].conj() * amps[right]
    y = np.cumsum(products[:, 1], axis=1)
    o12, o23, o31, *kept = np.einsum("pm,pm->p", products[:, 0], y[:, ::-1]).tolist()
    eps = [max(0.0, 1.0 - k.real) for k in kept]
    bound = sum(math.sqrt(eps[i] * eps[i - 1]) for i in range(3))
    return phase_result(o12 * o23 * o31, METHOD_FOCK_ORACLE, bound=bound)


# ---------------------------------------------------------------------------
# The polarizer on each photon-number sector, and the dense operator forms


def _polarizer_sectors(theta: float, n_max: int, top: int):
    """Sectors N = 0..top of exp{i theta G}, G = a1†a2 + a2†a1, as (occ1, vals, block):
    the mode-1 occupations n1 of the sector's basis |n1, N - n1> with
    n1, N - n1 <= n_max, the eigenvalues of G there and the sector's unitary.

    One eigh per sector of G's restriction, which is tridiagonal with
    <n1+1, N-n1-1| a1†a2 |n1, N-n1> = sqrt((n1+1)(N-n1)).
    """
    phase = 1j * _reduced_angle(theta)
    for total in range(top + 1):
        occ1 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        off = np.sqrt((occ1[:-1] + 1.0) * (total - occ1[:-1]))
        vals, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        yield occ1, vals, (vecs * np.exp(phase * vals)) @ vecs.T


def polarizer_unitary(theta: float, dim: TruncationDim) -> np.ndarray:
    """exp{i theta (a1†a2 + a2†a1)} on the (n_max+1)^2 box, exactly block diagonal
    over the photon-number sectors N = 0..2 n_max of _polarizer_sectors."""
    m = dim.states_per_mode
    u = np.zeros((dim.dim, dim.dim), dtype=complex)
    for total, (occ1, _, block) in enumerate(_polarizer_sectors(theta, dim.n_max, 2 * dim.n_max)):
        sector = occ1 * m + total - occ1
        u[np.ix_(sector, sector)] = block
    return u


def single_mode_displacement(z: complex, n_max: int) -> np.ndarray:
    """Truncated single-mode displacement exp{z a† - conj(z) a}: with z = r e^{i phi},
    R exp(r(a† - a)) R†, R = diag(e^{i phi n}), from one eigh of i(a† - a)."""
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    vals, vecs = np.linalg.eigh(1j * (a.T - a))
    vecs = np.exp(1j * cmath.phase(z) * np.arange(n_max + 1))[:, None] * vecs
    return (vecs * np.exp(-1j * abs(z) * vals)) @ vecs.conj().T


@dataclass(frozen=True)
class DensityOperator:
    """Density matrix on the (n_max+1)^2 box, with its cutoff."""

    matrix: np.ndarray
    dim: TruncationDim


def evolve(rho: DensityOperator, u: np.ndarray, *, unitarity_tol: float = 1e-10) -> DensityOperator:
    """Heisenberg-convention update rho -> u† rho u.

    With u = polarizer_unitary(theta), coherent labels transform by the
    matching label map, the one the routes run (see geomphase._label_map).
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
