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
state as one WirtingerTerm. (q, p) delta derivatives (DeltaDerivativeTerm)
are a boundary form of the pfunc schema and GaussianFunction.partial, which
QuasiProbability.from_delta_terms converts.

Pairing engine. Every test function is exp Q with
Q(w) = conj(w)·H·w + a·w + b·conj(w) + c, which has no z-z or zbar-zbar
part; a polynomial prefactor is a derivative in generator variables g, as in
z^m conj(z)^n e^{-|z|^2} = d_gbar^m d_g^n exp(-|z|^2 + conj(z) g + conj(g) z)
at g = 0. The envelopes add |z - c|^2 to Q. Each product of P terms is
therefore a mixed derivative of e^Q at the centers, a sum over partial
matchings of the z derivatives with the zbar derivatives (_matching_sum).
pair_product pairs several P objects at once; geomphase uses it with the
coherent-overlap kernel. See docs/derivations.md.

What depends only on structure is built once per structure: the
matching-sum plan (_matching_plan), the variables of a product of terms
(_product_vars) and the Wirtinger expansion of (q, p) orders. None is keyed
on centers or coefficients; those enter each call as numbers. The numbers
may come in batches: pair_product takes a stack of forms, such as the
kernels of a sweep's polarizer chains, and runs one matching-sum DP over
all of them.

Two-mode states are tensor products of the per-mode factors. Occupations
above 1 are outside the supported family.
"""
from __future__ import annotations

import cmath
import collections
import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fock

__all__ = [
    "PhaseSpacePoint",
    "DeltaDerivativeTerm",
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


@dataclass(frozen=True)
class DeltaDerivativeTerm:
    """coeff * envelope * product of (q, p) delta derivatives at a common center.

    orders = (dq1, dp1, dq2, dp2) are the delta derivative orders per axis,
    each in {0, 1, 2}. The envelope exp{+(x - center)^2} per axis, centred with
    the deltas, is on unless QuasiProbability.from_delta_terms is told otherwise.
    """

    coeff: complex
    center1: PhaseSpacePoint
    center2: PhaseSpacePoint
    orders: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.orders) != 4 or any(o not in (0, 1, 2) for o in self.orders):
            raise ValueError(f"orders must be four values in 0..2, got {self.orders}")
        if not cmath.isfinite(self.coeff) or self.coeff == 0:
            raise ValueError(f"term coefficient must be finite and nonzero, got {self.coeff}")

    @property
    def centers(self) -> tuple[float, float, float, float]:
        return (self.center1.q, self.center1.p, self.center2.q, self.center2.p)


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

    @classmethod
    def from_delta_terms(cls, terms, envelope: bool = True) -> "QuasiProbability":
        """The P object of (q, p) DeltaDerivativeTerms. Equal Wirtinger terms are
        collected, so the four (q, p) terms of |1, 1> become d_z d_zbar per mode."""
        collected: dict = {}
        for t in terms:
            centers = (t.center1.to_complex(), t.center2.to_complex())
            for (z, zbar), w in _wirtinger_expansion(t.orders).items():
                key = (centers, z, zbar)
                collected[key] = collected.get(key, 0.0) + t.coeff * w
        terms = tuple(WirtingerTerm(w, *key) for key, w in collected.items() if w != 0)
        return cls(terms, envelope)

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
    """(-1)^order d^orders over (q1, p1, q2, p2) as {(z vars, zbar vars): coeff}, by
    d_q = d_z + d_zbar and d_p = i(d_z - d_zbar); mode m is variable m."""
    factors = [(a // 2, ((1.0, 1.0), (1j, -1j))[a % 2])
               for a, order in enumerate(orders) for _ in range(order)]
    expansion: dict = {}
    for picks in itertools.product((0, 1), repeat=len(factors)):  # 0: d_z, 1: d_zbar
        key = tuple(tuple(v for (v, _), pick in zip(factors, picks) if pick == side) for side in (0, 1))
        w = (-1.0) ** len(factors) * math.prod(ws[pick] for (_, ws), pick in zip(factors, picks))
        expansion[key] = expansion.get(key, 0.0) + w
    return expansion


@lru_cache(maxsize=None)
def _product_vars(structure: tuple) -> tuple:
    """The z and the zbar variables of a product of terms with these (z vars, zbar vars):
    the i-th term's mode m is pair_product's variable 2*i + m."""
    return tuple(tuple(2 * i + v for i, t in enumerate(structure) for v in t[side]) for side in (0, 1))


@lru_cache(maxsize=None)
def _count_tables(counts: tuple) -> tuple:
    """States s with 0 <= s[u] <= counts[u], flat in C order: source[u, s] = s less one u
    (the state count if s[u] = 0), free = counts - s, and scale = 1 / prod(free!)."""
    dims = tuple(c + 1 for c in counts)
    states = np.indices(dims).reshape(len(dims), math.prod(dims))
    strides = np.array([math.prod(dims[u + 1:]) for u in range(len(dims))], dtype=int)
    source = np.where(states > 0, np.arange(states.shape[1]) - strides[:, None], states.shape[1])
    free = np.array(counts, dtype=int)[:, None] - states
    factorials = np.cumprod([1.0, *range(1, max(counts, default=0) + 1)])
    return source, free, 1.0 / factorials[free].prod(axis=0)


@lru_cache(maxsize=1024)
def _matching_plan(z_vars: tuple, zbar_vars: tuple, size: int) -> tuple:
    """What _matching_sum needs of its slots alone, for a size x size hess: the z
    variables, the distinct zbar variables zbar_u, the index of each z slot's step
    weights into a row hess.ravel() + grad_z (the pair weights hess[zbar_u, z],
    then the slot's own gradient), the _count_tables source with the state itself
    as the last source row, the initial states, the scale, and the index into the
    table of gradient powers g[u]^e (u by e, flat) of each unmatched factor
    g[u]^free[u, s]."""
    counted = collections.Counter(zbar_vars)
    zbar_u = np.array(tuple(counted), dtype=int)
    z = np.array(z_vars, dtype=int)
    source, free, scale = _count_tables(tuple(counted.values()))
    source = np.vstack([source, np.arange(len(scale))])
    steps = np.hstack([size * zbar_u + z[:, None], size * size + z[:, None]])[:, None, :]
    start = np.zeros(len(scale) + 1, dtype=complex)
    start[0] = 1.0 / scale[0]
    exponents = np.arange(max(counted.values(), default=0) + 1)
    plan = (z, zbar_u, steps, source, start, scale, exponents,
            len(exponents) * np.arange(len(zbar_u))[:, None] + free)
    for a in plan:
        a.flags.writeable = False
    return plan


def _matching_sum(z_vars, zbar_vars, grad_z, grad_zbar, hess) -> np.ndarray:
    """exp(-Q) d^z_vars d^zbar_vars exp(Q), Q quadratic with no z-z or zbar-zbar part,
    for a batch of G forms: hess (G, n, n), grad_z and grad_zbar (G, n).

    The sum over partial matchings of z slots with zbar slots: a pair weighs
    hess[zbar, z], an unmatched slot its gradient entry. Slots of one zbar
    variable are interchangeable, so a state counts the matched slots per
    distinct zbar variable. sums[:, s] covers the z slots so far, times
    prod(free!) so that each step is one weighted sum over the sources of s
    (one per zbar variable, and s itself for the slot left unmatched);
    sums[:, -1] stays 0. The indices come from _matching_plan, built once per
    slot structure. Each step is a matmul per batch member, so a member's sum
    has the bits of its batch of one. A batch whose gathered sources would
    exceed fock.BLOCK_BYTES is summed in chunks.
    """
    g = len(hess)
    if not (z_vars or zbar_vars):
        return np.ones(g, dtype=complex)
    z, zbar_u, steps, source, start, scale, exponents, powers = _matching_plan(
        tuple(z_vars), tuple(zbar_vars), hess.shape[-1])
    chunk = max(1, fock.BLOCK_BYTES // (16 * source.size))
    if g > chunk:
        return np.concatenate([
            _matching_sum(z_vars, zbar_vars, grad_z[lo : lo + chunk], grad_zbar[lo : lo + chunk],
                          hess[lo : lo + chunk])
            for lo in range(0, g, chunk)
        ])
    weights = np.concatenate((hess.reshape(g, -1), grad_z), axis=1).take(steps, axis=1)
    sums = np.tile(start, (g, 1))
    head = sums[:, None, :-1]
    for k in range(len(z)):
        # take copies every source before matmul overwrites the states
        np.matmul(weights[:, k], sums.take(source, axis=1), out=head)
    table = grad_zbar.take(zbar_u, axis=1)[:, :, None] ** exponents
    unmatched = table.reshape(g, -1).take(powers, axis=1).prod(axis=1)
    return np.matmul(head, (scale * unmatched)[:, :, None])[:, 0, 0]


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
        """d^orders f at point over (q1, p1, q2, p2): the pairing against one bare
        delta-derivative term with coefficient (-1)^|orders|."""
        term = DeltaDerivativeTerm((-1.0) ** sum(orders), PhaseSpacePoint(*point[:2]),
                                   PhaseSpacePoint(*point[2:]), tuple(orders))
        return pair(QuasiProbability.from_delta_terms((term,), envelope=False), self)

    def value(self, point) -> complex:
        return self.partial((0, 0, 0, 0), point)

    def translated(self, offset) -> "GaussianFunction":
        """f(x + offset) with offset over (q1, p1, q2, p2). Shifting w by delta is
        linear in w' = (w, 1), so only the last row and column (a, b, c) change."""
        offset = np.asarray(offset, dtype=float)
        shift = np.eye(len(self.form), dtype=complex)
        shift[:2, -1] = offset[0::2] + 1j * offset[1::2]
        return replace(self, form=shift.conj().T @ self.form @ shift)


@lru_cache(maxsize=1024)
def _envelope_diagonal(envelope: tuple, size: int) -> np.ndarray:
    """The size x size diagonal that is 1 on both variables of each enveloped P object."""
    flags = [float(e) for e in envelope for _ in range(2)]
    diag = np.diag(flags + [0.0] * (size - len(flags)))
    diag.flags.writeable = False
    return diag


def pair_product(ps, f: GaussianFunction):
    """integral P_1(x_1) ... P_k(x_k) f(x_1, ..., x_k) dx in the absorbed measure.

    Each enveloped P adds |z - c|^2 to Q, which at its centers c changes
    neither Q nor its gradients. So each product of Wirtinger terms is the
    matching sum with gradients grad_z Q = conj(w')·form and
    grad_zbar Q = form·w' at w' = (centers, 0, 1), times exp Q; the zbar-z
    curvature is H plus 1 on the enveloped variables' diagonal.

    f.form may stack G forms along a leading axis; the result is then the array
    of the G pairings, each with the bits of the pairing of its form alone: the
    sums are matmuls per form, and products of complex numbers are taken one
    form at a time. A single form is the batch of one and gives a
    complex number.
    """
    forms = f.form.reshape(-1, *f.form.shape[-2:])
    size = forms.shape[-1]
    n_p = 2 * len(ps)
    hess = forms + _envelope_diagonal(tuple(p.envelope for p in ps), size)
    w = np.zeros(size, dtype=complex)
    w[-1] = 1.0
    total = [0j] * len(forms)
    # overflow yields a non-finite invariant, which method_reconciliation rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for terms in itertools.product(*(p.terms for p in ps)):
            w[:n_p] = [z for t in terms for z in t.centers]
            z_vars, zbar_vars = _product_vars(tuple(t[2:] for t in terms))
            w_bar = w.conj()
            grad_zbar = np.matmul(forms, w)
            grad_z = np.matmul(w_bar, forms)
            moment = _matching_sum(
                z_vars + f.z_slots, zbar_vars + f.zbar_slots, grad_z, grad_zbar, hess)
            base = np.exp(np.matmul(grad_zbar[:, None, :], w_bar)).ravel()
            coeff = math.prod(t.coeff for t in terms)
            # numpy's complex product fuses in some loops and not in others;
            # Python's gives a form the same bits in any batch
            total = [t + coeff * m * b for t, m, b in zip(total, moment.tolist(), base.tolist())]
    return total[0] if f.form.ndim == 2 else np.array(total)


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
