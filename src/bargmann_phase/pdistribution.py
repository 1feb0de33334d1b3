"""Diagonal coherent-state (P) representations of low Fock states, and the
engine that pairs them with Gaussian test functions.

A state rho is written rho = integral P(z1, z2) |z1, z2><z1, z2| d^2z1 d^2z2
with z = q + ip per mode. For Fock states the weight P is a finite sum of
derivatives of delta functions times a divergent Gaussian envelope
exp{+|z - center|^2}; the envelope is attached per term and recentres
under displacement, so a displaced state's P is the rigidly translated P.

Normalization convention, fixed here and used consistently by the pairing
and by the phase-space invariant engine: the flat measure constants are
absorbed into the term coefficients, so that

    pair(P, f) = integral P(x) f(x) dx        (absorbed measure)

reproduces matrix elements directly: pair(P, f_mn) = <m|rho|n> with
f_mn(z) = <m|z><z|n>, and pair(P, 1) = Tr rho = 1.

P objects are born in Wirtinger form (z, conj z) per mode, where
(1/4)(d_q^2 + d_p^2) = d_z d_zbar: mehta_p_function builds every supported
state as one WirtingerTerm. The (q, p) derivative orders of
GaussianFunction.partial are expanded into Wirtinger terms by
d_q = d_z + d_zbar and d_p = i(d_z - d_zbar); the pfunc schema's (q, p)
terms are written and checked in module io.

Pairing engine. Every test function is exp Q with
Q(w) = conj(w)·H·w + a·w + b·conj(w) + c, which has no z-z or zbar-zbar
part; a polynomial prefactor is a derivative in generator variables g, as in
z^m conj(z)^n e^{-|z|^2} = d_gbar^m d_g^n exp(-|z|^2 + conj(z) g + conj(g) z)
at g = 0. The envelopes add |z - c|^2 to Q. Each product of P terms is
therefore a mixed derivative of e^Q at the centers, a sum over partial
matchings of the z derivatives with the zbar derivatives (_matching_sum).
pair_product pairs several P objects at once. See docs/derivations.md.

The Bargmann invariant does not run this engine: its kernel is a cycle, and
module geomphase contracts it edge by edge. The engine serves the test
functions that are not cycles, and it is the tests' reference for that
contraction.

Two-mode states are tensor products of the per-mode factors. Occupations
above 1 are outside the supported family.
"""
from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "PhaseSpacePoint",
    "WirtingerTerm",
    "QuasiProbability",
    "mehta_p_function",
    "GaussianFunction",
    "pair_product",
    "pair",
    "fock_element_function",
    "gaussian_smear_function",
    "constant_function",
    "reconstruct_density_element",
]

@dataclass(frozen=True)
class PhaseSpacePoint:
    """Point (q, p) in a single mode's phase plane; z = q + ip."""

    q: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.q) and math.isfinite(self.p)):
            raise ValueError("phase-space coordinates must be finite")

    @classmethod
    def from_complex(cls, z: complex) -> "PhaseSpacePoint":
        return cls(q=z.real, p=z.imag)

    def to_complex(self) -> complex:
        return complex(self.q, self.p)

    def shifted(self, dq: float, dp: float) -> "PhaseSpacePoint":
        return PhaseSpacePoint(self.q + dq, self.p + dp)


ORIGIN = PhaseSpacePoint(0.0, 0.0)


class WirtingerTerm(NamedTuple):
    """A P term in Wirtinger form: paired with f it gives coeff times d^z_vars d^zbar_vars
    of envelope * f at the centers (c1, c2), so coeff holds the sign (-1)^order of the
    delta derivatives. The vars name the differentiated modes, 0 and 1."""

    coeff: complex
    centers: tuple[complex, complex]
    z_vars: tuple
    zbar_vars: tuple


@dataclass(frozen=True)
class QuasiProbability:
    """Finite delta-derivative representation of a P distribution, as WirtingerTerms."""

    terms: tuple[WirtingerTerm, ...]
    envelope: bool = True

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a QuasiProbability needs at least one term")

    def shifted(self, d1: PhaseSpacePoint, d2: PhaseSpacePoint) -> "QuasiProbability":
        """Rigid translation by a displacement (d1 on mode 1, d2 on mode 2)."""
        d = (d1.to_complex(), d2.to_complex())
        return replace(self, terms=tuple(
            t._replace(centers=(t.centers[0] + d[0], t.centers[1] + d[1])) for t in self.terms
        ))

    def scaled(self, factor: complex) -> "QuasiProbability":
        return replace(self, terms=tuple(t._replace(coeff=t.coeff * factor) for t in self.terms))

    def combined(self, other: "QuasiProbability") -> "QuasiProbability":
        """Formal sum; pairing is linear over it."""
        if self.envelope != other.envelope:
            raise ValueError("cannot combine representations with different envelopes")
        return QuasiProbability(terms=self.terms + other.terms, envelope=self.envelope)


def mehta_p_function(
    occupation: tuple[int, int],
    shift: tuple[PhaseSpacePoint, PhaseSpacePoint] = (ORIGIN, ORIGIN),
) -> QuasiProbability:
    """P representation of a (displaced) two-mode Fock state |n1, n2>.

    Supported occupations are {0, 1} per mode. The shift places the state
    at phase-space centers (c1, c2), matching the displaced Fock state
    D(c1, c2)|n1, n2> with c = q + ip. The P is one Wirtinger term with
    coefficient 1: d_z d_zbar on each occupied mode.
    """
    if any(n not in (0, 1) for n in occupation):
        raise ValueError(f"unsupported occupation {occupation}; modes must be 0 or 1")
    modes = tuple(mode for mode, n in enumerate(occupation) if n)
    centers = (shift[0].to_complex(), shift[1].to_complex())
    return QuasiProbability(terms=(WirtingerTerm(1.0, centers, modes, modes),))


# ---------------------------------------------------------------------------
# Pairing engine


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
