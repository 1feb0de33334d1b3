"""Independent oracles for the test suite.

Everything here is computed by routes the library does not use: explicit
Fock amplitude series, the polarizer's label map as a complex matrix,
closed-form (Laguerre) overlaps of displaced number states up to two photons
and the exact chain invariant built from them, the shoelace area formula,
plain finite differences, a per-z eigendecomposition of the displacement
generator, the pairing of P objects in real (q, p) coordinates by a
derivative recursion, and the general pairing engine of P objects against
Gaussian test functions in Wirtinger coordinates, with its finite-difference
check. Library results are compared against these, never
against other library results.

The one exception is the dense section: it lays the library's own amplitudes
(fock._number_amplitudes) out as (n_max+1)^2 vectors and density matrices, so
that the oracle's sums and bincounts can be checked against plain linear
algebra on the same states, and it bins their squared moduli into the chain
weights (complex_chain_weights) that fock.chain_weights forms from real
amplitudes.
"""
from __future__ import annotations

import cmath
import collections
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from bargmann_phase import fock
from bargmann_phase.pdistribution import PhaseSpacePoint, QuasiProbability, WirtingerTerm


def transmission_matrix(theta: float) -> np.ndarray:
    """Intensity-coupling matrix of a polarizer rotated by theta:
    ((cos^2, cos sin), (sin cos, sin^2)). Its off-diagonal derivative at
    theta = 0 pins the mode-coupling generator used by the library."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [s * c, s * s]])


def label_map_matrix(theta: float) -> np.ndarray:
    """The polarizer's label map as a 2x2 complex matrix,
    M(theta) = ((cos, -i sin), (-i sin, cos)): U(theta)† |z1, z2> is the coherent
    state of M(theta) (z1, z2). Unitary, and M(s) M(t) = M(s + t)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def coherent_amplitudes(z: complex, n_max: int) -> np.ndarray:
    """Fock amplitudes e^{-|z|^2/2} z^n / sqrt(n!) up to the cutoff."""
    out = np.zeros(n_max + 1, dtype=complex)
    amp = cmath.exp(-0.5 * abs(z) ** 2)
    for n in range(n_max + 1):
        out[n] = amp
        amp = amp * z / math.sqrt(n + 1)
    return out


def displaced_number_amplitudes(z: complex, n: int, n_max: int) -> np.ndarray:
    """<m|D(z)|n> for n in {0, 1} up to the cutoff, untruncated: the coherent
    amplitudes c_m, and for n = 1 the series sqrt(m) c_{m-1} - conj(z) c_m of
    (a† - conj(z)) D(z)|0>."""
    c = coherent_amplitudes(z, n_max)
    if n == 0:
        return c
    if n != 1:
        raise ValueError("oracle series covers occupations 0 and 1 only")
    shifted = np.concatenate(([0.0], np.sqrt(np.arange(1.0, n_max + 1)) * c[:-1]))
    return shifted - np.conjugate(z) * c


def two_mode_coherent_vector(z1: complex, z2: complex, n_max: int) -> np.ndarray:
    """Joint amplitudes with mode 1 on the slow axis."""
    return np.kron(coherent_amplitudes(z1, n_max), coherent_amplitudes(z2, n_max))


def overlap_series(a: tuple, b: tuple, n_max: int) -> complex:
    """<a|b> summed over the truncated joint Fock basis."""
    va = two_mode_coherent_vector(a[0], a[1], n_max)
    vb = two_mode_coherent_vector(b[0], b[1], n_max)
    return complex(np.vdot(va, vb))


def displacement_phase(alpha: complex, beta: complex) -> complex:
    """D(alpha) D(beta) = displacement_phase * D(alpha + beta)."""
    return cmath.exp(-1j * (np.conjugate(alpha) * beta).imag)


def _laguerre(n: int, alpha: int, x: float) -> float:
    """The generalized Laguerre polynomial L_n^(alpha)(x) for n <= 2."""
    return (1.0, 1.0 + alpha - x, 0.5 * (x * x - 2 * (alpha + 2) * x + (alpha + 1) * (alpha + 2)))[n]


def displaced_number_overlap(m: int, beta: complex, n: int) -> complex:
    """<m|D(beta)|n> for m, n in {0, 1, 2}, closed form (Cahill and Glauber):
    sqrt(n!/m!) beta^(m-n) e^{-|beta|^2/2} L_n^(m-n)(|beta|^2) for m >= n, and
    sqrt(m!/n!) (-conj beta)^(n-m) e^{-|beta|^2/2} L_m^(n-m)(|beta|^2) below."""
    if not (0 <= m <= 2 and 0 <= n <= 2):
        raise ValueError("oracle table covers occupations 0, 1 and 2 only")
    x = abs(beta) ** 2
    gauss = cmath.exp(-0.5 * x)
    if m >= n:
        return math.sqrt(math.factorial(n) / math.factorial(m)) * beta ** (m - n) * gauss * _laguerre(n, m - n, x)
    return (math.sqrt(math.factorial(m) / math.factorial(n)) * (-np.conjugate(beta)) ** (n - m)
            * gauss * _laguerre(m, n - m, x))


def displaced_fock_overlap(m: int, alpha: complex, n: int, beta: complex) -> complex:
    """<D(alpha) m | D(beta) n> = e^{i Im(conj(alpha) beta)} <m|D(beta - alpha)|n>."""
    return cmath.exp(1j * (np.conjugate(alpha) * beta).imag) * displaced_number_overlap(
        m, beta - alpha, n
    )


def triple_invariant_independent(occupations, centers) -> complex:
    """Exact Tr(rho_a rho_b rho_c) for three displaced number states.

    occupations: three (n1, n2) pairs, entries in {0, 1}.
    centers: three (z1, z2) complex pairs.
    The trace of a product of pure states is the cyclic product of
    overlaps, and both factorize over the modes.
    """
    total = 1.0 + 0.0j
    for mode in range(2):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            total *= displaced_fock_overlap(
                occupations[i][mode], centers[i][mode], occupations[j][mode], centers[j][mode]
            )
    return total


# |n1, n2> in the modes b± = (a1 ± a2)/sqrt(2), as (coefficient, n+, n-): a photon
# in a1 or a2 is (b+ ± b-)/sqrt(2), and |1, 1> is the Hong-Ou-Mandel pair.
_B_MODES = {
    (0, 0): ((1.0, 0, 0),),
    (1, 0): ((math.sqrt(0.5), 1, 0), (math.sqrt(0.5), 0, 1)),
    (0, 1): ((math.sqrt(0.5), 1, 0), (-math.sqrt(0.5), 0, 1)),
    (1, 1): ((math.sqrt(0.5), 2, 0), (-math.sqrt(0.5), 0, 2)),
}


def exact_chain_invariant(occupation, z1: complex, z2: complex, theta1: float, theta2: float) -> complex:
    """Exact <psi1|psi2><psi2|psi3><psi3|psi1> of a polarizer chain from
    psi1 = D(z1, z2)|occupation>, with no truncation.

    The polarizer is exp(-i t (n+ - n-)) in the b modes, where psi1 is
    D(w+) D(w-) of at most two number-state terms, w± = (z1 ± z2)/sqrt(2), and
    exp(-i t n) D(w)|j> = exp(-i t j) D(w exp(-i t))|j>. So
    f(t) = <psi1|exp(-i t G)|psi1> is a finite sum of displaced-number overlaps,
    and the invariant is f(theta1) f(theta2) conj f(theta1 + theta2), with
    exp(-i (theta1 + theta2)) formed as a product.
    """
    w_plus, w_minus = (z1 + z2) * math.sqrt(0.5), (z1 - z2) * math.sqrt(0.5)
    terms = _B_MODES[tuple(occupation)]

    def f(u):  # u = exp(-i t)
        return sum(
            cj * ck * u ** kp * np.conjugate(u) ** km
            * displaced_fock_overlap(jp, w_plus, kp, w_plus * u)
            * displaced_fock_overlap(jm, w_minus, km, w_minus * np.conjugate(u))
            for cj, jp, jm in terms for ck, kp, km in terms
        )

    u1, u2 = cmath.exp(-1j * theta1), cmath.exp(-1j * theta2)
    return complex(f(u1) * f(u2) * np.conjugate(f(u1 * u2)))


def shoelace_signed_area(p1, p2, p3) -> float:
    """Signed area of a triangle from (x, y) pairs."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return 0.5 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))


def central_difference(f, x: float, order: int, step: float = 1e-5) -> float:
    """Central finite difference of a scalar function, order 1 or 2."""
    if order == 1:
        return (f(x + step) - f(x - step)) / (2.0 * step)
    if order == 2:
        return (f(x + step) - 2.0 * f(x) + f(x - step)) / (step * step)
    raise ValueError("order must be 1 or 2")


def displacement_by_eigh(z: complex, n_max: int) -> np.ndarray:
    """exp(z a† - conj(z) a) from an eigendecomposition of i(z a† - conj(z) a) for this z."""
    a = single_mode_annihilation_reference(n_max)
    vals, vecs = np.linalg.eigh(1j * (z * a.conj().T - np.conjugate(z) * a))
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def number_operator_matrix(n_max: int) -> np.ndarray:
    return np.diag(np.arange(float(n_max + 1)))


def single_mode_annihilation_reference(n_max: int) -> np.ndarray:
    """Ladder matrix written out elementwise, <n-1|a|n> = sqrt(n)."""
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


# ---------------------------------------------------------------------------
# Dense forms on the (n_max+1)^2 box, index(n1, n2) = n1 (n_max + 1) + n2


def displaced_fock_states(states, dim: fock.TruncationDim) -> np.ndarray:
    """Rows D(z1, z2)|n1, n2> cut to n1 + n2 <= n_max, in the (n_max+1)^2 box layout
    with exact zeros above the cut, one per (z1, n1, z2, n2) in states."""
    modes = fock._number_amplitudes(states, dim.n_max)
    m = np.arange(dim.states_per_mode)
    kept = np.add.outer(m, m) <= dim.n_max
    return (modes[:, 0, :, None] * modes[:, 1, None, :] * kept).reshape(-1, dim.dim)


def displaced_fock_state(
    z1: complex, n1: int, z2: complex, n2: int, dim: fock.TruncationDim
) -> np.ndarray:
    """State vector D(z1, z2)|n1, n2> cut to n1 + n2 <= n_max."""
    return displaced_fock_states([(z1, n1, z2, n2)], dim)[0]


def complex_chain_weights(
    z1: complex, n1: int, z2: complex, n2: int, dim: fock.TruncationDim
) -> np.ndarray:
    """fock.chain_weights from complex b-mode amplitudes: |sum over the terms of
    _B_MODE_TERMS of c <m+|D(w+)|j+> <m-|D(w-)|j->|^2, binned over m+ - m- for
    m+ + m- <= n_max: the amplitudes with their phases, which fock.chain_weights
    factors out."""
    n = dim.n_max
    w_plus, w_minus = (z1 + z2) * fock._SQRT_HALF, (z1 - z2) * fock._SQRT_HALF
    terms = fock._B_MODE_TERMS[(n1, n2)]
    amps = fock._number_amplitudes([(w_plus, j_plus, w_minus, j_minus) for _, j_plus, j_minus in terms], n)
    amplitude = np.einsum("ti,tj->ij", amps[:, 0] * [[c] for c, _, _ in terms], amps[:, 1])
    weights = np.abs(amplitude.ravel()) ** 2
    return np.bincount(fock._difference_slots(n), weights=weights, minlength=2 * n + 2)[:-1]


def evolve_state(psi: np.ndarray, theta: float, dim: fock.TruncationDim) -> np.ndarray:
    """psi -> U† psi, U = fock.polarizer_unitary(theta, dim); the vector form of fock.evolve."""
    return fock.polarizer_unitary(theta, dim).conj().T @ psi


def triple_overlap(psi1: np.ndarray, psi2: np.ndarray, psi3: np.ndarray) -> fock.PhaseResult:
    """Tr(rho1 rho2 rho3) of pure states: <psi1|psi2><psi2|psi3><psi3|psi1>."""
    if not (psi1.shape == psi2.shape == psi3.shape):
        raise ValueError("state vectors live on different truncations")
    inv = np.vdot(psi1, psi2) * np.vdot(psi2, psi3) * np.vdot(psi3, psi1)
    return fock.phase_result(inv, fock.METHOD_FOCK_ORACLE)


def density_operator(vec: np.ndarray, dim: fock.TruncationDim) -> fock.DensityOperator:
    """The projector |vec><vec| on the box."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (dim.dim,):
        raise ValueError(f"vector shape {vec.shape} does not match dim {dim.dim}")
    return fock.DensityOperator(matrix=np.outer(vec, vec.conj()), dim=dim)


def displaced_fock_density(
    z1: complex, n1: int, z2: complex, n2: int, dim: fock.TruncationDim
) -> fock.DensityOperator:
    """The projector on D(z1, z2)|n1, n2> cut to n1 + n2 <= n_max."""
    return density_operator(displaced_fock_state(z1, n1, z2, n2, dim), dim)


# ---------------------------------------------------------------------------
# Real-coordinate pairing engine: the P objects' (q, p) delta derivatives
# against exp of one quadratic over the 12 real variables (q, p per slot
# and mode), differentiated by the gradient-and-curvature recursion.


def delta_terms(occupation, centers) -> list:
    """The P of D(c1, c2)|n1, n2> in (q, p) coordinates, as (coeff, centers,
    orders) with centers = (q1, p1, q2, p2) and orders = (dq1, dp1, dq2, dp2):
    |0> is the delta, |1> is (1/4)(d_q^2 + d_p^2) of it, and the envelope
    exp{+|x - center|^2} is understood."""
    per_mode = {0: [(1.0, (0, 0))], 1: [(0.25, (2, 0)), (0.25, (0, 2))]}
    return [
        (w1 * w2, tuple(centers), o1 + o2)
        for w1, o1 in per_mode[occupation[0]]
        for w2, o2 in per_mode[occupation[1]]
    ]


def add_sesquilinear(h: np.ndarray, slot_i: int, slot_j: int, a: np.ndarray):
    """Add conj(z_i)·A·z_j to the quadratic form x·H·x/2, z = q + ip per mode."""
    for m in range(2):
        for k in range(2):
            coeff = a[m, k]
            if coeff == 0:
                continue
            qi, pi = 4 * slot_i + 2 * m, 4 * slot_i + 2 * m + 1
            qj, pj = 4 * slot_j + 2 * k, 4 * slot_j + 2 * k + 1
            for va, vb, c in (
                (qi, qj, coeff),
                (pi, pj, coeff),
                (qi, pj, 1j * coeff),
                (pi, qj, -1j * coeff),
            ):
                if va == vb:
                    h[va, va] += 2 * c
                else:
                    h[va, vb] += c
                    h[vb, va] += c


def kernel_quadratic(maps, envelopes, kernel: str) -> np.ndarray:
    """12x12 quadratic-form matrix of envelope * kernel (center-free part)."""
    h = np.zeros((12, 12), dtype=complex)
    m0, m1, m2 = (np.asarray(m, dtype=complex) for m in maps)
    if kernel == "derived":
        for i, m in enumerate((m0, m1, m2)):
            add_sesquilinear(h, i, i, -(m.conj().T @ m))
        add_sesquilinear(h, 0, 1, m0.conj().T @ m1)
        add_sesquilinear(h, 1, 2, m1.conj().T @ m2)
        add_sesquilinear(h, 2, 0, m2.conj().T @ m0)
    elif kernel == "transcribed":
        mode1 = np.diag([1.0, 0.0]).astype(complex)
        add_sesquilinear(h, 0, 0, -(m0.conj().T @ m0))
        add_sesquilinear(h, 1, 1, -2.0 * (m1.conj().T @ mode1 @ m1))
        add_sesquilinear(h, 2, 2, 2.0 * (m2.conj().T @ m2))
        add_sesquilinear(h, 0, 1, m0.conj().T @ m1)
        add_sesquilinear(h, 1, 2, m1.conj().T @ m2)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    for i, env in enumerate(envelopes):
        if env:
            for v in range(4 * i, 4 * i + 4):
                h[v, v] += 2.0
    return h


def hermite_moment(counts: tuple, g: list, h_rows: list, memo: dict) -> complex:
    """exp(-Q) d^counts exp(Q) at the expansion point, by recursion.

    With g = grad Q and H = Hess Q (constant), removing one derivative i:
    M(S + i) = g_i M(S) + sum_j mult_j H_ij M(S - j).
    """
    val = memo.get(counts)
    if val is not None:
        return val
    i = 0
    while counts[i] == 0:
        i += 1
    rest = list(counts)
    rest[i] -= 1
    rest_t = tuple(rest)
    total = g[i] * hermite_moment(rest_t, g, h_rows, memo)
    hi = h_rows[i]
    for j, mult in enumerate(rest_t):
        if mult:
            lower = list(rest_t)
            lower[j] -= 1
            total += mult * hi[j] * hermite_moment(tuple(lower), g, h_rows, memo)
    memo[counts] = total
    return total


def real_coordinate_pairing(states, maps, kernel: str = "derived") -> complex:
    """Distributional value of the triple phase-space integral of three P objects.

    states are three (occupation, (q1, p1, q2, p2)) pairs whose enveloped P
    objects come from delta_terms, maps the three 2x2 label maps composed
    into the cyclic coherent-overlap kernel.
    """
    h = kernel_quadratic(maps, (True,) * 3, kernel)
    h_rows = [[complex(x) for x in row] for row in h]
    total = 0.0 + 0.0j
    stations: dict = {}
    for t1, t2, t3 in itertools.product(*(delta_terms(*s) for s in states)):
        centers = t1[1] + t2[1] + t3[1]
        station = stations.get(centers)
        if station is None:
            x0 = np.asarray(centers, dtype=float)
            b = -2.0 * x0.astype(complex)
            const = float(x0 @ x0)
            g = [complex(x) for x in (h @ x0 + b)]
            base = cmath.exp(complex(0.5 * x0 @ h @ x0 + b @ x0 + const))
            station = (g, base, {(0,) * 12: 1.0 + 0.0j})
            stations[centers] = station
        g, base, memo = station
        counts = t1[2] + t2[2] + t3[2]
        sign = -1.0 if sum(counts) % 2 else 1.0
        moment = hermite_moment(counts, g, h_rows, memo)
        total += t1[0] * t2[0] * t3[0] * sign * moment * base
    return complex(total)


def matching_sum_by_enumeration(z_vars, zbar_vars, grad_z, grad_zbar, hess) -> complex:
    """exp(-Q) d^z_vars d^zbar_vars exp(Q) as a plain sum over every partial
    matching of z slots with zbar slots.

    A repeated variable is several distinct slots. A matched pair of a z slot
    on variable z and a zbar slot on variable zbar weighs hess[zbar, z]; an
    unmatched slot weighs its gradient entry. Each matching is listed once:
    its z slots in increasing order, each given a distinct zbar slot.
    """
    total = 0.0 + 0.0j
    for k in range(min(len(z_vars), len(zbar_vars)) + 1):
        for z_slots in itertools.combinations(range(len(z_vars)), k):
            for zbar_slots in itertools.permutations(range(len(zbar_vars)), k):
                term = 1.0 + 0.0j
                for i, j in zip(z_slots, zbar_slots):
                    term *= hess[zbar_vars[j], z_vars[i]]
                for i, v in enumerate(z_vars):
                    if i not in z_slots:
                        term *= grad_z[v]
                for j, v in enumerate(zbar_vars):
                    if j not in zbar_slots:
                        term *= grad_zbar[v]
                total += term
    return complex(total)


# ---------------------------------------------------------------------------
# General pairing engine, in Wirtinger coordinates: P objects of any number of
# terms against exp Q with Q(w) = conj(w)·H·w + a·w + b·conj(w) + c, which has
# no z-z or zbar-zbar part. A polynomial prefactor is a derivative in generator
# variables g, as in z^m conj(z)^n e^{-|z|^2} = d_gbar^m d_g^n
# exp(-|z|^2 + conj(z) g + conj(g) z) at g = 0, and the envelopes add
# |z - c|^2 to Q. Each product of P terms is therefore a mixed derivative of
# e^Q at the centers, a sum over partial matchings of the z derivatives with
# the zbar derivatives (_matching_sum), as in the loop hafnian of Bjorklund,
# Gupt and Quesada. The (q, p) orders of GaussianFunction.partial are expanded
# into Wirtinger terms by d_q = d_z + d_zbar and d_p = i(d_z - d_zbar). This is
# the reference for geomphase's edge-by-edge contraction of the kernel cycle.


@lru_cache(maxsize=None)
def _wirtinger_expansion(orders: tuple) -> dict:
    """d^orders over (q1, p1, q2, p2) as {(z vars, zbar vars): coeff}, by
    d_q = d_z + d_zbar and d_p = i(d_z - d_zbar); mode m is variable m."""
    factors = [(a // 2, ((1.0, 1.0), (1j, -1j))[a % 2])
               for a, order in enumerate(orders) for _ in range(order)]
    expansion: dict = {}
    for picks in itertools.product((0, 1), repeat=len(factors)):  # 0: d_z, 1: d_zbar
        key = tuple(tuple(v for (v, _), pick in zip(factors, picks) if pick == side) for side in (0, 1))
        w = math.prod(ws[pick] for (_, ws), pick in zip(factors, picks))
        expansion[key] = expansion.get(key, 0.0) + w
    return expansion


@lru_cache(maxsize=None)
def _product_vars(structure: tuple) -> tuple:
    """The z and the zbar variables of a product of terms with these (z vars, zbar vars):
    the i-th term's mode m is pair_product's variable 2*i + m."""
    return tuple(tuple(2 * i + v for i, t in enumerate(structure) for v in t[side]) for side in (0, 1))


def _matching_sum(z_vars, zbar_vars, grad_z, grad_zbar, hess) -> complex:
    """exp(-Q) d^z_vars d^zbar_vars exp(Q), Q quadratic with no z-z or zbar-zbar part,
    with n x n hess and the gradients grad_z and grad_zbar of length n.

    The sum over partial matchings of z slots with zbar slots: a pair weighs
    hess[zbar][z], an unmatched slot its gradient entry. Slots of one zbar
    variable are interchangeable, so the sum walks the z slots keeping
    {free slots per distinct zbar variable: partial sum}. A z slot on v stays
    unmatched (grad_z[v]) or takes one of the c free slots of u (c * hess[u][v],
    skipped where hess[u][v] is 0); the slots still free at the end weigh
    grad_zbar[u] each.
    """
    us = tuple(dict.fromkeys(zbar_vars))
    sums = {tuple(map(zbar_vars.count, us)): 1.0 + 0j}
    for v in z_vars:
        pairs = [(k, w) for k, u in enumerate(us) if (w := hess[u][v])]
        step = collections.defaultdict(complex)
        for free, s in sums.items():
            step[free] += s * grad_z[v]
            for k, w in pairs:
                if free[k]:
                    step[free[:k] + (free[k] - 1,) + free[k + 1:]] += s * free[k] * w
        sums = step
    # repeated products, not **, so that overflow gives inf rather than raising
    return complex(sum(
        s * math.prod(grad_zbar[u] for u, c in zip(us, free) for _ in range(c))
        for free, s in sums.items()))


@dataclass(frozen=True, eq=False)
class GaussianFunction:
    """d^z_slots d^zbar_slots exp Q(w) at generator variables 0, where
    Q(w) = conj(w)·H·w + a·w + b·conj(w) + c is held as one sesquilinear
    form over w' = (w, 1): form = [[H, b], [a, c]].

    w stacks the complex P variables, 2*i + mode - 1 for the i-th paired P
    object, and then the generator variables that the slots differentiate.
    """

    form: np.ndarray
    z_slots: tuple = ()
    zbar_slots: tuple = ()

    def partial(self, orders, point) -> complex:
        """d^orders f at point over (q1, p1, q2, p2), each order in 0..2: the pairing
        against the bare Wirtinger terms of that derivative."""
        orders = tuple(orders)
        if len(orders) != 4 or any(o not in (0, 1, 2) for o in orders):
            raise ValueError(f"orders must be four values in 0..2, got {orders}")
        centers = (PhaseSpacePoint(*point[:2]).to_complex(), PhaseSpacePoint(*point[2:]).to_complex())
        terms = tuple(WirtingerTerm(w, centers, z, zbar)
                      for (z, zbar), w in _wirtinger_expansion(orders).items() if w != 0)
        return pair(QuasiProbability(terms, envelope=False), self)

    def value(self, point) -> complex:
        return self.partial((0, 0, 0, 0), point)

    def translated(self, offset) -> "GaussianFunction":
        """f(x + offset) with offset over (q1, p1, q2, p2). Shifting w by delta is
        linear in w' = (w, 1), so only the last row and column (a, b, c) change."""
        offset = np.asarray(offset, dtype=float)
        shift = np.eye(len(self.form), dtype=complex)
        shift[:2, -1] = offset[0::2] + 1j * offset[1::2]
        return replace(self, form=shift.conj().T @ self.form @ shift)


def pair_product(ps, f: GaussianFunction) -> complex:
    """integral P_1(x_1) ... P_k(x_k) f(x_1, ..., x_k) dx in the absorbed measure.

    Each enveloped P adds |z - c|^2 to Q, which at its centers c changes
    neither Q nor its gradients. So each product of Wirtinger terms is the
    matching sum with gradients grad_z Q = conj(w')·form and
    grad_zbar Q = form·w' at w' = (centers, 0, 1), times exp Q; the zbar-z
    curvature is H plus 1 on the enveloped variables' diagonal.
    """
    size = len(f.form)
    n_p = 2 * len(ps)
    flags = [float(p.envelope) for p in ps for _ in range(2)]
    hess = (f.form + np.diag(flags + [0.0] * (size - n_p))).tolist()
    w = np.zeros(size, dtype=complex)
    w[-1] = 1.0
    total = 0j
    # overflow yields a non-finite pairing
    with np.errstate(over="ignore", invalid="ignore"):
        for terms in itertools.product(*(p.terms for p in ps)):
            w[:n_p] = [z for t in terms for z in t.centers]
            z_vars, zbar_vars = _product_vars(tuple(t[2:] for t in terms))
            w_bar = w.conj()
            grad_zbar = f.form @ w
            moment = _matching_sum(z_vars + f.z_slots, zbar_vars + f.zbar_slots,
                                   (w_bar @ f.form).tolist(), grad_zbar.tolist(), hess)
            total += math.prod(t.coeff for t in terms) * moment * complex(np.exp(grad_zbar @ w_bar))
    return total


def pair(p: QuasiProbability, f: GaussianFunction) -> complex:
    """Distributional pairing integral P(x) f(x) dx in the absorbed measure."""
    return pair_product((p,), f)


def constant_function() -> GaussianFunction:
    return GaussianFunction(np.zeros((3, 3)))


def fock_element_function(bra: tuple[int, int], ket: tuple[int, int]) -> GaussianFunction:
    """f(x) = <bra|z><z|ket> as a function of (q1, p1, q2, p2).

    Per mode, <m|z><z|n> = e^{-|z|^2} z^m conj(z)^n / sqrt(m! n!), which is
    d_gbar^m d_g^n exp(-|z|^2 + conj(z) g + conj(g) z) / sqrt(m! n!) at
    g = 0, with generator g_k as variable 2 + k. Pairing the P of rho
    against this yields <bra|rho|ket> directly.
    """
    if min(*bra, *ket) < 0:
        raise ValueError("occupations must be nonnegative")
    form = np.zeros((5, 5))
    # H: -|z_1|^2 - |z_2|^2 + sum_k conj(z_k) g_k + conj(g_k) z_k; c: the normalisation
    form[:4, :4] = np.kron([[-1.0, 1.0], [1.0, 0.0]], np.eye(2))
    form[4, 4] = -0.5 * math.log(math.prod(math.factorial(k) for k in (*bra, *ket)))
    return GaussianFunction(
        form, z_slots=(2,) * ket[0] + (3,) * ket[1], zbar_slots=(2,) * bra[0] + (3,) * bra[1]
    )


def gaussian_smear_function(sigma: float, modes: tuple[int, ...] = (1, 2)) -> GaussianFunction:
    """Normalized-height Gaussian exp{-|z|^2 / (2 sigma^2)} on the selected
    modes' phase planes, constant in the other variables.

    With modes=(1,) this is the mode-1 marginal smear used as the
    nonclassicality witness; its pairing against a single-photon P is
    1 - 1/(2 sigma^2), strictly negative for sigma < 1/sqrt(2). A smear
    centred at c is gaussian_smear_function(sigma).translated(-c).
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    form = np.zeros((3, 3))
    for mode in modes:
        if mode not in (1, 2):
            raise ValueError("modes are numbered 1 and 2")
        form[mode - 1, mode - 1] = -0.5 / sigma**2
    return GaussianFunction(form)


def reconstruct_density_element(
    p: QuasiProbability, bra: tuple[int, int], ket: tuple[int, int]
) -> complex:
    """<bra|rho|ket> recovered from the P representation alone."""
    return pair(p, fock_element_function(bra, ket))


_EPS = 2.22e-16


@dataclass
class NumericalFunction:
    """Central finite differences on a black-box function of nvars reals.

    The reference for the engine's exact partials. The base step (default
    1e-5) balances truncation against cancellation for first and second
    derivatives of order-one functions; for higher total orders the
    product stencil widens the step to eps^{1/(order+2)}, the usual
    balance point.
    """

    func: object
    nvars: int
    step: float = 1e-5

    def partial(self, orders, point) -> complex:
        if len(orders) != self.nvars:
            raise ValueError("orders length must match variable count")
        if not set(orders) <= {0, 1, 2}:
            raise ValueError("finite differences support orders 0..2 per variable")
        point = tuple(float(x) for x in point)
        total = sum(orders)
        h = self.step if total <= 2 else max(self.step, _EPS ** (1.0 / (total + 2)))
        stencils = {
            0: ((0.0, 1.0),),
            1: ((h, 0.5 / h), (-h, -0.5 / h)),
            2: ((h, 1.0 / (h * h)), (0.0, -2.0 / (h * h)), (-h, 1.0 / (h * h))),
        }
        return sum(
            math.prod(w for _, w in combo)
            * complex(self.func(tuple(p + s for p, (s, _) in zip(point, combo))))
            for combo in itertools.product(*(stencils[o] for o in orders))
        )
