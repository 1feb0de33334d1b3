"""Independent oracles for the test suite.

Everything here is computed by routes the library does not use: explicit
Fock amplitude series, closed-form (Laguerre) overlaps of displaced number
states up to two photons and the exact chain invariant built from them, the
shoelace area formula, plain finite differences, a per-z eigendecomposition
of the displacement generator, and the pairing of P objects in real (q, p)
coordinates by a derivative recursion. Library results are compared against
these, never against other library results.
"""
from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


def transmission_matrix(theta: float) -> np.ndarray:
    """Intensity-coupling matrix of a polarizer rotated by theta:
    ((cos^2, cos sin), (sin cos, sin^2)). Its off-diagonal derivative at
    theta = 0 pins the mode-coupling generator used by the library."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [s * c, s * s]])


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
