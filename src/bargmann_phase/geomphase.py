"""Geometric phase of a two-mode beam from the Bargmann invariant.

Three routes to arg Tr(rho1 rho2 rho3) are implemented and reconciled:

* fock route (oracle): states cut to total photon number n1 + n2 <= n_max
  with exact amplitudes; a polarizer chain's invariant is a trigonometric
  polynomial in the angles whose coefficients are the initial state's
  weights on the polarizer's integer eigenvalues (fock.chain_weights,
  fock.chain_invariant), and three independent states go through their
  truncated overlaps (fock.triangle_invariant);
* phase-space route: exact distributional evaluation of the sextuple
  integral of P1 P2 P3 against the coherent-overlap kernel, see below;
* reference closed form: a transcription of a published arctan formula
  in the six phase-space centers, kept verbatim for auditing. It is NOT
  exact for occupied modes; method_reconciliation quantifies this.

Phase-space engine. With P_i a finite delta-derivative object (module
pdistribution), the invariant is

    integral P1(x1) P2(x2) P3(x3) K(L1 x1, L2 x2, L3 x3) dx1 dx2 dx3

where K is the cyclic coherent-overlap kernel <z|z'><z'|z''><z''|z>
written over labels z = q + ip, and the L_i are per-slot 2x2 complex
label maps. Polarizer evolution enters through the maps: the P of an
evolved state is the pullback of the initial P, so the evolved chain
rho1 -> U† rho1 U -> ... reuses P1's terms in every slot with
L1 = 1, L2 = M(theta1), L3 = M(theta1) M(theta2) composed into the
kernel. This is exact; no shape assumption is made about the evolved P
(the polarizer does not map Fock states to Fock states).

The label map M(theta) = [[c, -i s], [-i s, c]], c = cos theta and
s = sin theta, is written once, on coordinates (_label_map), and its
composition once, on the angles' cos and sin (_composed, which forms
M(theta1) M(theta2) from the factors). The printed and coherent routes read
a chain's labels z, M(theta1) z and M(theta1) M(theta2) z from them
(_chain_labels), the pairing reads its edge couplings from the same
composed cos and sin (_chain_edges), and validate checks both functions.

In Wirtinger coordinates (z, conj z) per slot and mode the kernel is
exp(conj(z)·B·z) with B = L† W L, a Gaussian with no z-z or zbar-zbar
part. Every supported state's P is one term (mehta_p_function), a z and
zbar derivative on each occupied mode at the state's centers, so the route
reads a state's occupation and centers and builds no P object; the pairing
is a sum over partial matchings of z with zbar derivatives. Each slot's envelope
cancels that slot's -|z|^2, so the zbar of slot i meets only the z of
slot i + 1, through K_i = L_i† L_{i+1}. The matching sum is then one
factor per edge of the cycle, each a sum over at most 2 x 2 slots, times
the exponential of the summed edge exponents (_cycle_pairings). The
general engine that pairs P objects of any number of terms (pair_product in
tests/oracles.py) is the tests' reference for this contraction; validate
checks the contraction itself. See docs/derivations.md.

Below PhaseScenario the routes read coordinates: a vertex is the tuple
(q1, p1, q2, p2), floats for one scenario and arrays for a grid. A sweep's
grid shares one initial state and varies only the two angles, so
evolved_grid_results builds the state's Fock chain weights once and runs the
Fock chain (fock.chain_invariants), the pairing's edges, the labels and the
printed form's terms over one schedule of blocks of the grid as real array
arithmetic. method_reconciliation then reconciles each point from those
results. A single scenario's routes run
the same code on a grid of one or on floats, so a grid point and a fresh
scenario give the same bits.
"""
from __future__ import annotations

import cmath
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import fock
from .coherent import CoherentLabel, bargmann_triple_coherent
from .fock import (
    METHOD_FOCK_ORACLE,
    METHOD_PHASE_SPACE_PAIRING,
    METHOD_PRINTED_CLOSED_FORM,
    PhaseResult,
    TruncationDim,
    TruncationLeakageWarning,
    chain_bound,
    chain_invariant,
    chain_invariants,
    chain_weights,
    phase_result,
    principal_phase,
    triangle_invariant,
)
from .pdistribution import ORIGIN, PhaseSpacePoint

__all__ = [
    "ModePair",
    "StateSpec",
    "PhaseScenario",
    "phase_space_trace",
    "ReconciliationRow",
    "ReconciliationReport",
    "method_reconciliation",
    "evolved_grid_results",
    "random_evolved_scenarios",
    "random_independent_scenarios",
    "run_reconciliation",
    "closed_form_audit",
]

ModePair = tuple[PhaseSpacePoint, PhaseSpacePoint]


def _coordinates(vertex: ModePair) -> tuple:
    return (vertex[0].q, vertex[0].p, vertex[1].q, vertex[1].p)


def _slot(state: "StateSpec") -> tuple:
    """A state as the pairing reads it: its centers' (q1, p1, q2, p2) and its occupation."""
    return _coordinates(state.centers), state.occupation


def _check_occupation(occupation):
    n1, n2 = occupation
    if n1 not in (0, 1) or n2 not in (0, 1):
        raise ValueError(f"supported occupations are 0 and 1 per mode, got {occupation}")


@dataclass(frozen=True)
class StateSpec:
    """A displaced Fock state: occupation per mode plus phase-space centers."""

    occupation: tuple[int, int]
    center1: PhaseSpacePoint = ORIGIN
    center2: PhaseSpacePoint = ORIGIN

    def __post_init__(self):
        _check_occupation(self.occupation)

    @classmethod
    def from_complex(cls, occupation: tuple[int, int], z1: complex, z2: complex) -> "StateSpec":
        return cls(
            occupation=occupation,
            center1=PhaseSpacePoint.from_complex(z1),
            center2=PhaseSpacePoint.from_complex(z2),
        )

    @property
    def centers(self) -> ModePair:
        return (self.center1, self.center2)

    def sector_weights(self, dim: TruncationDim) -> np.ndarray:
        """fock.chain_weights of the state, the weights on the polarizer's integer
        eigenvalues."""
        (n1, n2), (c1, c2) = self.occupation, self.centers
        return chain_weights(c1.to_complex(), n1, c2.to_complex(), n2, dim)


# ---------------------------------------------------------------------------
# Phase-space pairing: the kernel cycle, edge by edge


def _chain_trig(thetas1, thetas2) -> tuple:
    """cos and sin of each angle as (n1, 1) and (1, n2) arrays, and those of the
    composed map M(theta1) M(theta2) = M(theta1 + theta2) over the (n1, n2) grid,
    formed from the factors because the float sum theta1 + theta2 rounds at large
    angles. Each cos and sin is math's; _single_trig is the same for one chain."""
    c1, s1 = np.array([[[math.cos(t)] for t in thetas1], [[math.sin(t)] for t in thetas1]])
    c2, s2 = np.array([[[math.cos(t) for t in thetas2]], [[math.sin(t) for t in thetas2]]])
    return _composed(c1, s1, c2, s2)


def _single_trig(theta1: float, theta2: float) -> tuple:
    """_chain_trig of one chain in floats, which round as the arrays do."""
    return _composed(math.cos(theta1), math.sin(theta1), math.cos(theta2), math.sin(theta2))


def _composed(c1, s1, c2, s2) -> tuple:
    return c1, s1, c2, s2, c1 * c2 - s1 * s2, s1 * c2 + c1 * s2


def _chain_edges(trig: tuple) -> tuple:
    """The edge couplings (d, e), K = [[d, ie], [ie, d]], of the chains of a
    _chain_trig grid or of _single_trig floats. Edge i couples slot i to slot i + 1
    through K_i = L_i† L_{i+1} with L = (1, M1, M1 M2) and M = [[c, -i s], [-i s, c]]:
    M1, M2 and (M1 M2)†."""
    c1, s1, c2, s2, c12, s12 = trig
    return (c1, -s1), (c2, -s2), (c12, s12)


# Three independent states pair against the chain with no polarizer, L = 1.
_TRIANGLE_EDGES = ((1.0, 0.0),) * 3


def _edge(d, e, t: tuple, u: tuple) -> tuple:
    """One edge of the kernel cycle, from the state in slot t to the state in the
    next slot u, each a _slot (coordinates, occupation), centers a and b: the real
    and imaginary parts of the edge exponent conj(a)·(K b - a) and of its factor,
    the sum over partial matchings of the zbar slots of t's occupied modes with the
    z slots of u's.

    d and e are floats for one cycle or arrays for a grid of them; every step is
    real elementwise arithmetic, so both give a point the same bits.
    """
    (aq1, ap1, aq2, ap2), t_occupation = t
    (bq1, bp1, bq2, bp2), u_occupation = u
    # per mode, the zbar gradient K b - a and the z gradient conj(a) K - conj(b),
    # as (mode, re, im)
    zbar = ((0, d * bq1 - e * bp2 - aq1, d * bp1 + e * bq2 - ap1),
            (1, d * bq2 - e * bp1 - aq2, d * bp2 + e * bq1 - ap2))
    z = ((0, d * aq1 + e * ap2 - bq1, e * aq2 - d * ap1 + bp1),
         (1, d * aq2 + e * ap1 - bq2, e * aq1 - d * ap2 + bp2)) if any(u_occupation) else ()
    (_, r1, i1), (_, r2, i2) = zbar
    return (aq1 * r1 + ap1 * i1 + aq2 * r2 + ap2 * i2,
            aq1 * i1 - ap1 * r1 + aq2 * i2 - ap2 * r2,
            *_matchings(d, e, [x for x, n in zip(zbar, t_occupation) if n],
                        [y for y, n in zip(z, u_occupation) if n]))


def _matchings(d, e, x, y) -> tuple:
    """(Re, Im) of the sum over partial matchings of the slots x with the slots y,
    each a list of at most two (mode, re, im): a matched pair (u, v) weighs K[u][v],
    which is d for u = v and ie otherwise, and an unmatched slot its (re, im)."""
    if len(x) < len(y):
        x, y = y, x  # K is symmetric, so the sides may swap
    if not y:
        if not x:
            return 1.0, 0.0
        _, r, i = x[0]
        if len(x) == 2:
            _, r1, i1 = x[1]
            r, i = r * r1 - i * i1, r * i1 + i * r1
        return r, i
    if len(x) == 1:  # the pair matched, or both left
        (u, xr, xi), (v, yr, yi) = x[0], y[0]
        r, i = xr * yr - xi * yi, xr * yi + xi * yr
        return (r + d, i) if u == v else (r, i + e)
    (u0, r0, i0), (u1, r1, i1) = x
    if len(y) == 1:  # x0 x1 y + K[u0][v] x1 + K[u1][v] x0
        v, yr, yi = y[0]
        pr, pi = r0 * r1 - i0 * i1, r0 * i1 + i0 * r1
        r, i = pr * yr - pi * yi, pr * yi + pi * yr
        for u, sr, si in ((u0, r1, i1), (u1, r0, i0)):
            r, i = (r + d * sr, i + d * si) if u == v else (r - e * si, i + e * sr)
        return r, i
    # two slots a side: none matched, one of the four pairs, or a perfect matching
    (v0, s0, t0), (v1, s1, t1) = y
    r00, i00 = r0 * s0 - i0 * t0, r0 * t0 + i0 * s0
    r11, i11 = r1 * s1 - i1 * t1, r1 * t1 + i1 * s1
    r01, i01 = r0 * s1 - i0 * t1, r0 * t1 + i0 * s1
    r10, i10 = r1 * s0 - i1 * t0, r1 * t0 + i1 * s0
    r, i = r00 * r11 - i00 * i11, r00 * i11 + i00 * r11
    for u, v, sr, si in ((u0, v0, r11, i11), (u1, v1, r00, i00), (u0, v1, r10, i10), (u1, v0, r01, i01)):
        r, i = (r + d * sr, i + d * si) if u == v else (r - e * si, i + e * sr)
    # K[u0][v0] K[u1][v1] + K[u0][v1] K[u1][v0], each product d d, d (ie) or (ie)(ie)
    for diagonal in ((u0 == v0) + (u1 == v1), (u0 == v1) + (u1 == v0)):
        if diagonal == 2:
            r = r + d * d
        elif diagonal == 1:
            i = i + d * e
        else:
            r = r - e * e
    return r, i


def _cycle_value(x0, y0, r0, i0, x1, y1, r1, i1, x2, y2, r2, i2) -> complex:
    """exp(sum of the edge exponents) times the edge factors, from the floats of
    three _edge results, in Python's complex arithmetic. The exponent's real part is
    at most 0 in exact arithmetic; one that overflows through rounding, or one that is
    not finite, gives a non-finite invariant, which method_reconciliation rejects."""
    try:
        base = cmath.exp(complex(x0 + x1 + x2, y0 + y1 + y2))
    except (OverflowError, ValueError):
        return complex(math.nan, math.nan)
    # added to 0j, so that a zero imaginary part is +0 and a real invariant's
    # phase reads 0, not -0
    return 0j + base * complex(r0, i0) * complex(r1, i1) * complex(r2, i2)


def _cycle_pairings(slots: tuple, edges: tuple, shape: tuple | None = None) -> list:
    """The pairing of the P functions of the states in slots, each a _slot
    (coordinates, occupation), against the kernel cycle with edge couplings edges:
    exp(Q(c)) prod(edge factors). Each state's P is one term, d_z d_zbar on each
    occupied mode at its centers (mehta_p_function).
    Once each slot's envelope cancels that slot's -|z|^2, slot i's zbar meets only
    slot i + 1's z, so the matching sum of the twelve derivative slots is the product
    of the edges' own sums.

    edges hold floats for one cycle, which gives a list of one invariant, or arrays
    that broadcast to shape, which gives one invariant a point in row-major order.
    """
    values = []
    for (d, e), t, u in zip(edges, slots, slots[1:] + slots[:1]):
        values += _edge(d, e, t, u)
    if shape is None:
        return [_cycle_value(*values)]
    columns = (np.broadcast_to(x, shape).ravel().tolist() for x in values)
    return [_cycle_value(*point) for point in zip(*columns)]


def phase_space_trace(s1: StateSpec, s2: StateSpec, s3: StateSpec) -> PhaseResult:
    """Bargmann invariant of three independent states via their P functions."""
    slots = (_slot(s1), _slot(s2), _slot(s3))
    return phase_result(_cycle_pairings(slots, _TRIANGLE_EDGES)[0], METHOD_PHASE_SPACE_PAIRING)


# ---------------------------------------------------------------------------
# Reference closed form (transcribed verbatim; audited, not trusted)


def _printed_phase(symplectic_sum, x1, y1, x2, y2, occupation) -> float:
    """The reference closed form's phase: the bilinear sum plus the arctan term of
    each occupied mode, wrapped to the principal branch."""
    total = symplectic_sum
    if occupation[0]:
        total += math.atan2(y1, x1)
    if occupation[1]:
        total += math.atan2(y2, x2)
    return principal_phase(total)


def _printed_result(phase: float) -> PhaseResult:
    """The phase-only reference result; its invariant is the unit-modulus exp(i phase)."""
    return PhaseResult(
        invariant=cmath.exp(1j * phase), phase=phase, method=METHOD_PRINTED_CLOSED_FORM
    )


# The reference form of one mode reads the coordinates (q, p) of the mode's three
# vertices a, b and c. They are floats for one triangle and arrays for a grid of
# them; both run the same arithmetic, so each grid point gets its triangle's bits.


def _mode_cycle(aq, ap, bq, bp, cq, cp):
    return (aq * bp - bq * ap) + (bq * cp - cq * bp) + (cq * ap - aq * cp)


def _mode_xy(aq, ap, bq, bp, cq, cp) -> tuple:
    sq_a = aq * aq + ap * ap
    sq_b = bq * bq + bp * bp
    sq_c = cq * cq + cp * cp
    dot_ab = aq * bq + ap * bp
    dot_bc = bq * cq + bp * cp
    dot_ca = cq * aq + cp * ap
    cross_bc = cq * bp - bq * cp
    y = (
        _mode_cycle(aq, ap, bq, bp, cq, cp)
        + sq_b * (aq * cp - cq * ap)
        + sq_c * (bq * ap - aq * bp)
        + sq_a * (cq * bp - bq * cp)
    )
    x = (
        (dot_bc * dot_bc + cross_bc * cross_bc + dot_bc) * sq_a
        + dot_ca * sq_b
        + dot_ab * sq_c
        + (aq * bq + bq * cq + cq * aq)
        + (ap * bp + bp * cp + cp * ap)
        + 1.0
    )
    return x, y


def _mode_terms(a, b, c) -> tuple:
    """(symplectic_sum, x1, y1, x2, y2) of vertices given as (q1, p1, q2, p2)."""
    x1, y1 = _mode_xy(a[0], a[1], b[0], b[1], c[0], c[1])
    x2, y2 = _mode_xy(a[2], a[3], b[2], b[3], c[2], c[3])
    cycles = (_mode_cycle(a[0], a[1], b[0], b[1], c[0], c[1])
              + _mode_cycle(a[2], a[3], b[2], b[3], c[2], c[3]))
    return cycles, x1, y1, x2, y2


def _coherent_result(a, b, c) -> PhaseResult:
    """bargmann_triple_coherent of three vertices given as (q1, p1, q2, p2) floats."""
    return bargmann_triple_coherent(
        *(CoherentLabel(complex(q1, p1), complex(q2, p2)) for q1, p1, q2, p2 in (a, b, c)))


def _label_map(v: tuple, c, s) -> tuple:
    """M(theta) v for a vertex v = (q1, p1, q2, p2), c = cos theta and s = sin theta:
    the label of U(theta)† |v>. M = [[c, -i s], [-i s, c]] maps z1 = q1 + i p1 to
    c z1 - i s z2 and z2 to c z2 - i s z1, which in coordinates is below. c and s
    are floats or arrays."""
    q1, p1, q2, p2 = v
    return (c * q1 + s * p2, c * p1 - s * q2, c * q2 + s * p1, c * p2 - s * q1)


def _chain_labels(a: tuple, trig: tuple) -> tuple:
    """The labels M(theta1) a and M(theta1) M(theta2) a of a _chain_trig grid, as
    (q1, p1, q2, p2) arrays of shapes (n1, 1) and (n1, n2), or of _single_trig
    floats."""
    return _label_map(a, *trig[:2]), _label_map(a, *trig[4:])


# ---------------------------------------------------------------------------
# Scenarios and reconciliation


@dataclass(frozen=True)
class PhaseScenario:
    """One reconciliation case: either a polarizer chain or three states.

    Evolved scenarios carry (vertex_a, theta1, theta2); the other two
    vertices the closed forms consume are the label-mapped centers.
    Independent scenarios carry three vertices and no angles. The same
    occupation applies to every state in the chain.
    """

    occupation: tuple[int, int]
    vertex_a: ModePair
    theta1: float | None = None
    theta2: float | None = None
    vertex_b: ModePair | None = None
    vertex_c: ModePair | None = None

    def __post_init__(self):
        _check_occupation(self.occupation)

    @classmethod
    def evolved(
        cls, occupation, vertex: ModePair, theta1: float, theta2: float
    ) -> "PhaseScenario":
        return cls(
            occupation=tuple(occupation),
            vertex_a=vertex,
            theta1=float(theta1),
            theta2=float(theta2),
        )

    @classmethod
    def independent(
        cls, occupation, vertex_a: ModePair, vertex_b: ModePair, vertex_c: ModePair
    ) -> "PhaseScenario":
        return cls(
            occupation=tuple(occupation),
            vertex_a=vertex_a,
            vertex_b=vertex_b,
            vertex_c=vertex_c,
        )

    @property
    def is_evolved(self) -> bool:
        return self.theta1 is not None

    @property
    def initial_state(self) -> StateSpec:
        return StateSpec(self.occupation, *self.vertex_a)

    @cached_property
    def _trig(self) -> tuple:
        """_single_trig of the angles, shared by the labels and the pairing route."""
        return _single_trig(self.theta1, self.theta2)

    @cached_property
    def _points(self) -> tuple:
        """The given vertices as (q1, p1, q2, p2) floats, read once for every route:
        a chain's initial center alone, or a triangle's three."""
        given = (self.vertex_a,) if self.is_evolved else (self.vertex_a, self.vertex_b, self.vertex_c)
        return tuple(_coordinates(v) for v in given)

    @cached_property
    def _vertices(self) -> tuple:
        """The three vertices as (q1, p1, q2, p2) floats; a chain's last two are
        the label-mapped centers."""
        if self.is_evolved:
            a = self._points[0]
            return (a, *_chain_labels(a, self._trig))
        return self._points

    def fock_invariant(self, dim: TruncationDim) -> PhaseResult:
        n1, n2 = self.occupation
        states = [(complex(q1, p1), n1, complex(q2, p2), n2) for q1, p1, q2, p2 in self._points]
        if self.is_evolved:
            return chain_invariant(chain_weights(*states[0], dim), self.theta1, self.theta2, dim)
        return triangle_invariant(states, dim)

    def pairing_invariant(self) -> PhaseResult:
        slots = tuple((point, self.occupation) for point in self._points)
        if self.is_evolved:
            slots, edges = slots * 3, _chain_edges(self._trig)
        else:
            edges = _TRIANGLE_EDGES
        return phase_result(_cycle_pairings(slots, edges)[0], METHOD_PHASE_SPACE_PAIRING)

    def printed_invariant(self) -> PhaseResult:
        return _printed_result(_printed_phase(*_mode_terms(*self._vertices), self.occupation))

    def coherent_invariant(self) -> PhaseResult | None:
        """Exact coherent closed form; applicable only to occupation (0, 0)."""
        if self.occupation != (0, 0):
            return None
        return _coherent_result(*self._vertices)


def circular_delta(phase_a: float, phase_b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(principal_phase(phase_a - phase_b))


@dataclass(frozen=True)
class ReconciliationRow:
    scenario: PhaseScenario
    results: dict
    abs_delta_max: float | None
    flag: str

    @property
    def deltas(self) -> dict:
        """circular_delta of each pair of defined phases, keyed "a|b"; {} on an undefined row."""
        defined = [] if self.flag == "undefined" else [
            (name, res.phase) for name, res in self.results.items() if res.phase is not None]
        return {f"{a}|{b}": circular_delta(pa, pb)
                for (a, pa), (b, pb) in itertools.combinations(defined, 2)}

    def phase_of(self, method: str) -> float | None:
        res = self.results.get(method)
        return None if res is None else res.phase


@dataclass(frozen=True)
class ReconciliationReport:
    rows: tuple
    tolerance: float
    n_max: int

    @property
    def all_ok(self) -> bool:
        return all(row.flag in ("ok", "undefined") for row in self.rows)

    @property
    def disagreements(self) -> int:
        return sum(1 for row in self.rows if row.flag == "disagree")


def method_reconciliation(
    scenario: PhaseScenario,
    dim: TruncationDim = TruncationDim(25),
    tolerance: float = 1e-6,
    results: dict | None = None,
) -> ReconciliationRow:
    """Run every applicable method on a scenario and compare phases.

    The agreement gate covers the trusted methods (fock oracle, phase
    space pairing, and the coherent closed form when it applies); the
    reference closed form is reported alongside with its delta but only
    joins the gate for occupation (0, 0), where it is exact. If any gated
    invariant has undefined phase the row is flagged undefined and the
    reference phase is suppressed too (its premise, the arg of the
    invariant, is vacuous there). A non-finite invariant from any route
    raises ValueError rather than being flagged as a disagreement. Before that,
    a Fock truncation bound above tolerance * |invariant| raises a
    TruncationLeakageWarning; its text names the state's bound and n_max only,
    so the default filter shows it once per state.

    results, when given, holds the routes' PhaseResults by method name as
    evolved_grid_results yields them, and the routes are not run again.
    """
    if results is None:
        routes = {"fock_oracle": scenario.fock_invariant(dim),
                  "phase_space_pairing": scenario.pairing_invariant(),
                  "coherent_closed_form": scenario.coherent_invariant(),
                  "printed_closed_form": scenario.printed_invariant()}
        results = {name: res for name, res in routes.items() if res is not None}
    # A kept weight 1 - eps_i, running sums of n_max + 1 terms a mode, rounds by under
    # (n_max + 1) epsilons (0.7 (n_max + 1) at most, measured to n_max 100); either
    # bound is at most 3 max eps_i, so below that floor it may be rounding alone.
    fock_route, floor = results["fock_oracle"], 3 * (dim.n_max + 1) * sys.float_info.epsilon
    if fock_route.bound > max(tolerance * abs(fock_route.invariant), floor):
        warnings.warn(f"the Fock oracle's truncation bound {fock_route.bound:.3g} at n_max="
                      f"{dim.n_max} exceeds the tolerance times |invariant|; raise n_max",
                      TruncationLeakageWarning, stacklevel=2)
    for res in results.values():
        if not cmath.isfinite(res.invariant):
            raise ValueError(f"the {res.method} route returned a non-finite invariant")

    # the printed form gates only occupation (0, 0), and its phase is never None
    gated = [res.phase for name, res in results.items()
             if name != "printed_closed_form" or scenario.occupation == (0, 0)]
    if None in gated:
        printed = replace(results["printed_closed_form"], phase=None)
        return ReconciliationRow(
            scenario=scenario, results={**results, "printed_closed_form": printed},
            abs_delta_max=None, flag="undefined",
        )

    abs_delta_max = max(itertools.starmap(circular_delta, itertools.combinations(gated, 2)))
    flag = "ok" if abs_delta_max <= tolerance else "disagree"
    return ReconciliationRow(scenario=scenario, results=results, abs_delta_max=abs_delta_max, flag=flag)


def evolved_grid_results(state: StateSpec, thetas1, thetas2, dim: TruncationDim):
    """The route results of method_reconciliation for every polarizer chain from
    state over the grid thetas1 x thetas2, one dict per point in row-major order
    (theta2 fastest).

    The routes run as arrays over blocks of whole grid rows, or of one row's
    points when a row alone is too large, with no temporary above
    fock.BLOCK_BYTES; only the pairing's exponentials and last products, the
    Fock chain's last products, the arctans, the principal branch and the
    coherent closed form are taken point by point. A point's results have the
    bits of its PhaseScenario's own routes: those run the same code on a 1 x 1
    grid (chain_invariants) or on floats (the pairing's edges, the labels and the
    printed form's terms).
    """
    weights = state.sector_weights(dim)
    bound = chain_bound(weights)
    slot = _slot(state)
    a = slot[0]
    coherent = state.occupation == (0, 0)
    n1, n2, k, cap = len(thetas1), len(thetas2), dim.n_max, fock.BLOCK_BYTES
    # a block of rows x cols points holds some 30 lists of its points (the pairing's
    # edge values, the printed form's terms, the labels), at 32 bytes an entry for a
    # Python float and its pointer, and the Fock chain's (rows + 1, 4, k) weighted
    # rows and (rows + 1 + cols, 2, k) angle rows, at 8 bytes an entry
    points = max(1, cap // (32 * 32))
    cols = max(1, min(n2, points, cap // (16 * k) - 2))
    rows = max(1, min(points // cols, cap // (32 * k) - 1, cap // (16 * k) - 1 - cols))
    for i, j in itertools.product(range(0, n1, rows), range(0, n2, cols)):
        t1, t2 = thetas1[i : i + rows], thetas2[j : j + cols]
        fock_route = chain_invariants(weights, t1, t2, dim)
        trig = _chain_trig(t1, t2)
        # float arithmetic overflows to inf without a warning; so does this
        with np.errstate(over="ignore", invalid="ignore"):
            pairing = _cycle_pairings((slot,) * 3, _chain_edges(trig), trig[4].shape)
            b, c = _chain_labels(a, trig)
            terms = _mode_terms(a, b, c)
        grid = [np.broadcast_to(x, trig[4].shape).ravel().tolist()
                for x in (*terms, *((*b, *c) if coherent else ()))]
        for g, point in enumerate(zip(fock_route, pairing, *grid[:5])):
            results = {
                "fock_oracle": phase_result(point[0], METHOD_FOCK_ORACLE, bound=bound),
                "phase_space_pairing": phase_result(point[1], METHOD_PHASE_SPACE_PAIRING),
            }
            if coherent:
                bc = [x[g] for x in grid[5:]]
                results["coherent_closed_form"] = _coherent_result(a, bc[:4], bc[4:])
            results["printed_closed_form"] = _printed_result(
                _printed_phase(*point[2:], state.occupation))
            yield results


def _random_mode_pair(rng, scale: float) -> ModePair:
    vals = rng.uniform(-scale, scale, size=4)
    return (PhaseSpacePoint(vals[0], vals[1]), PhaseSpacePoint(vals[2], vals[3]))


def random_evolved_scenarios(count: int, seed: int, scale: float = 0.35) -> list:
    """Seeded polarizer-chain scenarios: occupations in {0,1}^2, centers
    bounded by scale per axis (|z| <= scale*sqrt(2)), angles in [0, pi)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        occupation = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        vertex = _random_mode_pair(rng, scale)
        theta1, theta2 = rng.uniform(0.0, math.pi, size=2)
        out.append(PhaseScenario.evolved(occupation, vertex, theta1, theta2))
    return out


def random_independent_scenarios(count: int, seed: int, scale: float = 0.35) -> list:
    """Seeded three-vertex scenarios with a shared occupation per case."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        occupation = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        vertices = [_random_mode_pair(rng, scale) for _ in range(3)]
        out.append(PhaseScenario.independent(occupation, *vertices))
    return out


def run_reconciliation(
    scenarios,
    dim: TruncationDim = TruncationDim(25),
    tolerance: float = 1e-6,
) -> ReconciliationReport:
    rows = tuple(method_reconciliation(s, dim=dim, tolerance=tolerance) for s in scenarios)
    return ReconciliationReport(rows=rows, tolerance=tolerance, n_max=dim.n_max)


def closed_form_audit(report: ReconciliationReport) -> dict:
    """Quantify how the reference closed form deviates from the exact phase.

    Returns a dict with per-population stats plus two targeted probes:
    a small-displacement suite showing the arctan terms duplicating the
    bilinear sum (phase ratio near 2 for doubly occupied states), and a
    wide-separation case showing a pi-size jump from the sign flip of the
    (1 - |Delta|^2) overlap factors, which a smooth arctan cannot track.
    """
    # the printed form's delta from the pairing, by whether the row is vacuum;
    # an undefined row has no deltas
    deltas = {True: [], False: []}
    for row in report.rows:
        delta = row.deltas.get("phase_space_pairing|printed_closed_form")
        if delta is not None:
            deltas[row.scenario.occupation == (0, 0)].append(delta)

    ratios = []
    for k in range(8):
        rng = np.random.default_rng(1000 + k)
        vertices = [_random_mode_pair(rng, 0.05) for _ in range(3)]
        scenario = PhaseScenario.independent((1, 1), *vertices)
        exact = scenario.pairing_invariant().phase
        printed = scenario.printed_invariant().phase
        if exact is not None and abs(exact) > 1e-9:
            ratios.append(printed / exact)

    flip = _sign_flip_probe()

    def stats(values):
        if not values:
            return {"count": 0, "max": None, "mean": None}
        return {
            "count": len(values),
            "max": float(max(values)),
            "mean": float(sum(values) / len(values)),
        }

    return {
        "vacuum_abs_delta": stats(deltas[True]),
        "occupied_abs_delta": stats(deltas[False]),
        "small_displacement_phase_ratio": stats(ratios),
        "sign_flip_probe": flip,
        "finding": (
            "reference closed form agrees with the exact phase for vacuum "
            "occupations (it reduces to the bilinear sum) but not for "
            "occupied modes: at small displacements its arctan terms "
            "duplicate the bilinear sum (phase ratio near 2), and at wide "
            "separations the exact phase jumps by pi when an overlap factor "
            "1 - |Delta|^2 changes sign, which the smooth arctan cannot "
            "reproduce"
        ),
    }


def _sign_flip_probe() -> dict:
    """Wide-separation doubly occupied case with a negative overlap factor."""
    a = (PhaseSpacePoint(0.0, 0.0), PhaseSpacePoint(0.0, 0.0))
    b = (PhaseSpacePoint(1.3, 0.1), PhaseSpacePoint(0.1, 0.0))
    c = (PhaseSpacePoint(0.4, -0.1), PhaseSpacePoint(0.0, 0.1))
    scenario = PhaseScenario.independent((1, 1), a, b, c)
    exact = scenario.pairing_invariant()
    printed = scenario.printed_invariant()
    delta = None
    if exact.phase is not None and printed.phase is not None:
        delta = circular_delta(exact.phase, printed.phase)
    return {
        "exact_phase": exact.phase,
        "printed_phase": printed.phase,
        "abs_delta": delta,
    }
