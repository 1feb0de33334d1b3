"""Geometric phase of a two-mode beam from the Bargmann invariant.

Three routes to arg Tr(rho1 rho2 rho3) are implemented and reconciled:

* fock route (oracle): truncated state vectors; a polarizer chain's
  invariant is read from the initial state's weights on the polarizer's
  sector eigenbases (fock.sector_weights, fock.chain_invariant), three
  independent states go through fock.triple_overlap;
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

In Wirtinger coordinates (z, conj z) per slot and mode the kernel is
exp(conj(z)·B·z) with B = L† W L, a Gaussian with no z-z or zbar-zbar
part. The pairing engine of module pdistribution (pair_product, the same
loop that reconstructs density elements) evaluates it exactly as a sum
over partial matchings of z with zbar derivatives. See
docs/derivations.md.

A state's derived data, its P object (born in Wirtinger form) and its
Fock sector weights per cutoff, is computed once per StateSpec and kept on
it. A PhaseScenario holds its initial StateSpec for its lifetime. A sweep's
grid shares one initial state and varies only the two angles, so
evolved_grid_results runs every route over blocks of the grid as arrays:
the Fock chain as fock.chain_invariants, the pairing as one batched
pair_product over the stacked chain kernels, and the labels and the printed
form's terms as array arithmetic. method_reconciliation then reconciles
each point from those results. A single scenario's routes run the same code
on a grid of one, so a grid point and a fresh scenario give the same bits.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import fock
from .coherent import CoherentLabel, bargmann_triple_coherent
from .fock import (
    METHOD_FOCK_ORACLE,
    METHOD_PHASE_SPACE_PAIRING,
    METHOD_PRINTED_CLOSED_FORM,
    PhaseResult,
    TruncationDim,
    chain_invariant,
    chain_invariants,
    displaced_fock_state,
    displaced_fock_states,
    phase_result,
    principal_phase,
    sector_weights,
    triple_overlap,
)
from .pdistribution import (
    ORIGIN,
    GaussianFunction,
    PhaseSpacePoint,
    QuasiProbability,
    mehta_p_function,
    pair_product,
)

__all__ = [
    "ModePair",
    "StateSpec",
    "TriangleConfig",
    "ClosedFormTerms",
    "PhaseScenario",
    "phase_space_trace",
    "phase_space_trace_evolved",
    "closed_form_terms",
    "geometric_phase",
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


@dataclass(frozen=True)
class StateSpec:
    """A displaced Fock state: occupation per mode plus phase-space centers.

    Its P object and its Fock sector weights are computed once per instance
    (per cutoff for the weights) and kept on it; equality and hashing see the
    fields only.
    """

    occupation: tuple[int, int]
    center1: PhaseSpacePoint = ORIGIN
    center2: PhaseSpacePoint = ORIGIN

    def __post_init__(self):
        n1, n2 = self.occupation
        if n1 not in (0, 1) or n2 not in (0, 1):
            raise ValueError(f"supported occupations are 0 and 1 per mode, got {self.occupation}")

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

    def label(self) -> CoherentLabel:
        return CoherentLabel(self.center1.to_complex(), self.center2.to_complex())

    def quasi_probability(self) -> QuasiProbability:
        return self._quasi_probability

    @cached_property
    def _quasi_probability(self) -> QuasiProbability:
        return mehta_p_function(self.occupation, shift=self.centers)

    def state_vector(self, dim: TruncationDim) -> np.ndarray:
        (n1, n2), (c1, c2) = self.occupation, self.centers
        return displaced_fock_state(c1.to_complex(), n1, c2.to_complex(), n2, dim)

    def sector_weights(self, dim: TruncationDim) -> np.ndarray:
        """fock.sector_weights of the state vector, built once per cutoff."""
        weights = self._sector_weights.get(dim.n_max)
        if weights is None:
            weights = sector_weights(self.state_vector(dim), dim)
            weights.flags.writeable = False
            self._sector_weights[dim.n_max] = weights
        return weights

    @cached_property
    def _sector_weights(self) -> dict:
        return {}


@dataclass(frozen=True)
class TriangleConfig:
    """Three two-mode phase-space vertices (one ModePair per state)."""

    vertex_a: ModePair
    vertex_b: ModePair
    vertex_c: ModePair

    def mode_vertices(self, mode: int) -> tuple[PhaseSpacePoint, PhaseSpacePoint, PhaseSpacePoint]:
        i = mode - 1
        return (self.vertex_a[i], self.vertex_b[i], self.vertex_c[i])


# ---------------------------------------------------------------------------
# Phase-space pairing engine


# The kernel is exp(conj(w)·W·w), w the stacked labels of the three slots.
_KERNEL_WEIGHTS = {
    # <w1|w2><w2|w3><w3|w1>: -|w_i|^2 plus the cyclic coupling conj(w_i)·w_{i+1}
    "derived": np.kron(np.roll(np.eye(3), 1, axis=1) - np.eye(3), np.eye(2)),
    # Verbatim structure of the source's complex-label trace expression:
    # slot-2 self-energy doubled in mode 1 and missing in mode 2, slot-3
    # self-energy sign-flipped and then doubled by a self-coupling that
    # replaces the cycle-closing cross term. Kept for the audit; fails
    # the equal-states sanity check away from the origin.
    "transcribed": np.kron([[-1, 1, 0], [0, 0, 1], [0, 0, 2]], np.eye(2))
    + np.diag([0, 0, -2, 0, 0, 0]),
}


def _kernel_weights(kernel: str) -> np.ndarray:
    if kernel not in _KERNEL_WEIGHTS:
        raise ValueError(f"unknown kernel {kernel!r}")
    return _KERNEL_WEIGHTS[kernel]


@lru_cache(maxsize=None)
def _independent_kernel(kernel: str) -> GaussianFunction:
    """The kernel exp(conj(z)·W·z) over the P variables 2*slot + mode of three
    independent states as a GaussianFunction, built once per kernel."""
    form = np.zeros((7, 7))  # no linear or constant part
    form[:6, :6] = _kernel_weights(kernel)
    form.flags.writeable = False
    return GaussianFunction(form)


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


@lru_cache(maxsize=None)
def _chain_kernel_layout(kernel: str) -> tuple:
    """Where _chain_kernel writes each value, as flat indices into the float view
    of a (7, 7) complex form, and the form's constant diagonal. A map
    M = [[c, -i s], [-i s, c]] puts c in the real part of its block's diagonal
    and -s in the imaginary part off it; (M1 M2)† has +s12 there."""
    blocks = ((0, 2), (2, 4)) + (((4, 0),) if kernel == "derived" else ((2, 2),))
    index = np.array([14 * (r + i) + 2 * (c + j) + part for r, c in blocks
                      for i, j, part in ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))])
    diag = np.zeros(98)
    diag[16 * np.arange(6)] = np.diag(_kernel_weights(kernel))
    for a in (index, diag):
        a.flags.writeable = False
    return index, diag


def _chain_kernel(trig: tuple, kernel: str) -> GaussianFunction:
    """The kernels exp(conj(z)·B·z) of the chains of a _chain_trig grid, stacked in
    row-major order, or the one kernel of _single_trig floats.

    B = L† W L with L = diag(1, M1, M1 M2) comes in closed block form: the maps
    are unitary, so a block W_ij = a I is a L_i† L_j, which is -1 on the diagonal
    and M1, M2 or (M1 M2)† off it. The transcribed kernel's slot-2 block
    diag(-2, 0) gives -2 conj(c1, -i s1)^T (c1, -i s1). Every entry is a trig
    value or a real product of them, so a grid's form has the bits of the
    single kernel of its chain."""
    index, diag = _chain_kernel_layout(kernel)
    c1, s1, c2, s2, c12, s12 = trig
    values = [c1, c1, -s1, -s1, c2, c2, -s2, -s2]
    if kernel == "derived":
        values += [c12, c12, s12, s12]
    else:
        cs = 2 * c1 * s1
        values += [-2 * c1 * c1, -2 * s1 * s1, cs, -cs]
    if not np.shape(c12):
        form = diag.copy()
        form[index] = values
        return GaussianFunction(form.view(complex).reshape(7, 7))
    form = np.broadcast_to(diag, c12.shape + (98,)).copy()
    form[..., index] = np.stack(np.broadcast_arrays(*values), axis=-1)
    return GaussianFunction(form.view(complex).reshape(-1, 7, 7))


def _chain_pairings(p: QuasiProbability, trig: tuple, kernel: str) -> np.ndarray:
    """pair_product of p in all three slots with every chain kernel of a _chain_trig
    grid, or with the one kernel of _single_trig floats."""
    return pair_product((p,) * 3, _chain_kernel(trig, kernel))


def phase_space_trace(
    s1: StateSpec, s2: StateSpec, s3: StateSpec, *, kernel: str = "derived"
) -> PhaseResult:
    """Bargmann invariant of three independent states via their P objects."""
    ps = (s1.quasi_probability(), s2.quasi_probability(), s3.quasi_probability())
    return phase_result(pair_product(ps, _independent_kernel(kernel)), METHOD_PHASE_SPACE_PAIRING)


def phase_space_trace_evolved(
    s1: StateSpec, theta1: float, theta2: float, *, kernel: str = "derived"
) -> PhaseResult:
    """Invariant of the polarizer chain rho1, U1† rho1 U1, U2† U1† rho1 U1 U2.

    The initial P is reused in every slot; evolution is composed into the
    kernel through the label maps. Exact at the distributional level.
    """
    pairing = _chain_pairings(s1.quasi_probability(), _single_trig(theta1, theta2), kernel)
    return phase_result(pairing, METHOD_PHASE_SPACE_PAIRING)


# ---------------------------------------------------------------------------
# Reference closed form (transcribed verbatim; audited, not trusted)


@dataclass(frozen=True)
class ClosedFormTerms:
    """Ingredients of the reference closed form.

    symplectic_sum is the cyclic bilinear sum over both modes (twice the
    summed signed triangle areas); (x_i, y_i) feed the occupied-mode
    arctan corrections.
    """

    symplectic_sum: float
    x1: float
    y1: float
    x2: float
    y2: float

    def phase(self, occupation: tuple[int, int] = (1, 1)) -> float:
        return _printed_phase(self.symplectic_sum, self.x1, self.y1, self.x2, self.y2, occupation)


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


def closed_form_terms(tri: TriangleConfig) -> ClosedFormTerms:
    """Evaluate the reference closed form's ingredients on a triangle."""
    return ClosedFormTerms(*_mode_terms(
        *(_coordinates(v) for v in (tri.vertex_a, tri.vertex_b, tri.vertex_c))))


def geometric_phase(tri: TriangleConfig, occupation: tuple[int, int] = (1, 1)) -> PhaseResult:
    """Reference closed-form phase (bilinear sum + occupied-mode arctans).

    The result is phase-only; the invariant slot carries the unit-modulus
    complex exp(i phase) so downstream consumers see a consistent pair.
    With occupation (0, 0) the arctan terms drop and the form reduces to
    the bilinear sum, which is exact for coherent states.
    """
    return _printed_result(closed_form_terms(tri).phase(occupation))


def _chain_labels(a: tuple, trig: tuple) -> tuple:
    """The labels M(theta1) a and M(theta1) M(theta2) a of a _chain_trig grid, as
    (q1, p1, q2, p2) arrays of shapes (n1, 1) and (n1, n2). M = [[c, -i s], [-i s, c]]
    maps z1 = q1 + i p1 to c z1 - i s z2, which in coordinates is below."""
    q1, p1, q2, p2 = a

    def mapped(c, s):
        return (c * q1 + s * p2, c * p1 - s * q2, c * q2 + s * p1, c * p2 - s * q1)

    return mapped(*trig[:2]), mapped(*trig[4:])


# ---------------------------------------------------------------------------
# Scenarios and reconciliation


def _coordinates(vertex: ModePair) -> tuple:
    return (vertex[0].q, vertex[0].p, vertex[1].q, vertex[1].p)


def _mode_pair(coordinates) -> ModePair:
    q1, p1, q2, p2 = coordinates
    return (PhaseSpacePoint(q1, p1), PhaseSpacePoint(q2, p2))


@dataclass(frozen=True)
class PhaseScenario:
    """One reconciliation case: either a polarizer chain or three states.

    Evolved scenarios carry (vertex_a, theta1, theta2); the other two
    vertices shown by triangle() are the label-mapped centers, which the
    closed forms consume. Independent scenarios carry three vertices and
    no angles. The same occupation applies to every state in the chain.

    initial_state, the StateSpec at vertex_a, is built once and held for the
    scenario's lifetime; it does not take part in equality. Scenarios given
    one initial_state, as the grid points of a sweep are, or made from one
    another with dataclasses.replace share it, and with it the state's
    derived data.
    """

    occupation: tuple[int, int]
    vertex_a: ModePair
    theta1: float | None = None
    theta2: float | None = None
    vertex_b: ModePair | None = None
    vertex_c: ModePair | None = None
    initial_state: StateSpec | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        state = self.initial_state
        if state is None:
            object.__setattr__(self, "initial_state", StateSpec(self.occupation, *self.vertex_a))
        elif (state.occupation, state.centers) != (tuple(self.occupation), tuple(self.vertex_a)):
            raise ValueError("initial_state does not match occupation and vertex_a")

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

    def triangle(self) -> TriangleConfig:
        return self._triangle

    @cached_property
    def _trig(self) -> tuple:
        """_single_trig of the angles, shared by triangle() and the pairing route."""
        return _single_trig(self.theta1, self.theta2)

    @cached_property
    def _triangle(self) -> TriangleConfig:
        if self.is_evolved:
            labels = _chain_labels(_coordinates(self.vertex_a), self._trig)
            return TriangleConfig(self.vertex_a, *(_mode_pair(v) for v in labels))
        return TriangleConfig(self.vertex_a, self.vertex_b, self.vertex_c)

    def fock_invariant(self, dim: TruncationDim) -> PhaseResult:
        if self.is_evolved:
            weights = self.initial_state.sector_weights(dim)
            return chain_invariant(weights, self.theta1, self.theta2, dim)
        n1, n2 = self.occupation
        states = [(v[0].to_complex(), n1, v[1].to_complex(), n2)
                  for v in (self.vertex_a, self.vertex_b, self.vertex_c)]
        return triple_overlap(*displaced_fock_states(states, dim))

    def pairing_invariant(self, kernel: str = "derived") -> PhaseResult:
        if self.is_evolved:
            pairing = _chain_pairings(self.initial_state.quasi_probability(), self._trig, kernel)
            return phase_result(pairing, METHOD_PHASE_SPACE_PAIRING)
        return phase_space_trace(
            self.initial_state,
            StateSpec(self.occupation, *self.vertex_b),
            StateSpec(self.occupation, *self.vertex_c),
            kernel=kernel,
        )

    def printed_invariant(self) -> PhaseResult:
        return geometric_phase(self.triangle(), self.occupation)

    def coherent_invariant(self) -> PhaseResult | None:
        """Exact coherent closed form; applicable only to occupation (0, 0)."""
        if self.occupation != (0, 0):
            return None
        tri = self.triangle()
        labels = [
            CoherentLabel(v[0].to_complex(), v[1].to_complex())
            for v in (tri.vertex_a, tri.vertex_b, tri.vertex_c)
        ]
        return bargmann_triple_coherent(*labels)


def circular_delta(phase_a: float, phase_b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(principal_phase(phase_a - phase_b))


_GATED_PAIRS_BASE = ("fock_oracle", "phase_space_pairing", "coherent_closed_form")


@dataclass(frozen=True)
class ReconciliationRow:
    scenario: PhaseScenario
    results: dict
    deltas: dict
    abs_delta_max: float | None
    flag: str

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
    raises ValueError rather than being flagged as a disagreement.

    results, when given, holds the routes' PhaseResults by method name as
    evolved_grid_results yields them, and the routes are not run again.
    """
    if results is None:
        results = {
            "fock_oracle": scenario.fock_invariant(dim),
            "phase_space_pairing": scenario.pairing_invariant(),
        }
        coherent = scenario.coherent_invariant()
        if coherent is not None:
            results["coherent_closed_form"] = coherent
        results["printed_closed_form"] = scenario.printed_invariant()
    for res in results.values():
        if not cmath.isfinite(res.invariant):
            raise ValueError(f"the {res.method} route returned a non-finite invariant")

    gated = [name for name in _GATED_PAIRS_BASE if name in results]
    if any(results[name].phase is None for name in gated):
        printed = results["printed_closed_form"]
        results = {**results, "printed_closed_form": PhaseResult(
            invariant=printed.invariant, phase=None, method=printed.method
        )}
        return ReconciliationRow(
            scenario=scenario, results=results, deltas={}, abs_delta_max=None, flag="undefined"
        )

    if scenario.occupation == (0, 0):
        gated.append("printed_closed_form")
    deltas, abs_delta_max = {}, 0.0
    for a, b in itertools.combinations(results, 2):
        pa, pb = results[a].phase, results[b].phase
        if pa is not None and pb is not None:
            delta = deltas[f"{a}|{b}"] = circular_delta(pa, pb)
            if a in gated and b in gated:
                abs_delta_max = max(abs_delta_max, delta)
    flag = "ok" if abs_delta_max <= tolerance else "disagree"
    return ReconciliationRow(
        scenario=scenario, results=results, deltas=deltas, abs_delta_max=abs_delta_max, flag=flag
    )


def evolved_grid_results(state: StateSpec, thetas1, thetas2, dim: TruncationDim):
    """The route results of method_reconciliation for every polarizer chain from
    state over the grid thetas1 x thetas2, one dict per point in row-major order
    (theta2 fastest).

    The routes run as arrays over blocks of whole grid rows, or of one row's
    points when a row alone is too large, with no temporary above
    fock.BLOCK_BYTES; only the arctans, the principal branch and the coherent
    closed form are taken point by point. A point's results have the bits of
    its PhaseScenario's own routes: those run the same code on a 1 x 1 grid
    (chain_invariants), a batch of one (pair_product) or floats (the labels
    and the printed form's terms).
    """
    weights = state.sector_weights(dim)
    p, a, origin = state.quasi_probability(), _coordinates(state.centers), state.label()
    coherent = state.occupation == (0, 0)
    n1, n2 = len(thetas1), len(thetas2)
    points = max(1, fock.BLOCK_BYTES // (16 * 7 * 7))  # one (7, 7) kernel form a point
    cols = min(n2, points)
    rows = max(1, points // cols)
    # the Fock route takes more rows at a time, as its angle rows are the costly
    # part at large cutoffs and its result is 16 bytes a point
    fock_rows = rows * max(1, fock.BLOCK_BYTES // (16 * n2 * rows))
    for i0 in range(0, n1, fock_rows):
        fock_block = chain_invariants(weights, thetas1[i0 : i0 + fock_rows], thetas2, dim)
        for i, j in itertools.product(range(i0, min(i0 + fock_rows, n1), rows), range(0, n2, cols)):
            t1, t2 = thetas1[i : i + rows], thetas2[j : j + cols]
            fock_route = fock_block[i - i0 : i - i0 + rows, j : j + cols].ravel().tolist()
            trig = _chain_trig(t1, t2)
            pairing = _chain_pairings(p, trig, "derived").tolist()
            # float arithmetic overflows to inf without a warning; so does this
            with np.errstate(over="ignore", invalid="ignore"):
                b, c = _chain_labels(a, trig)
                terms = _mode_terms(a, b, c)
            grid = [np.broadcast_to(x, trig[4].shape).ravel().tolist()
                    for x in (*terms, *((*b, *c) if coherent else ()))]
            for g, point in enumerate(zip(fock_route, pairing, *grid[:5])):
                results = {
                    "fock_oracle": phase_result(point[0], METHOD_FOCK_ORACLE),
                    "phase_space_pairing": phase_result(point[1], METHOD_PHASE_SPACE_PAIRING),
                }
                if coherent:
                    bq1, bp1, bq2, bp2, cq1, cp1, cq2, cp2 = (x[g] for x in grid[5:])
                    results["coherent_closed_form"] = bargmann_triple_coherent(
                        origin,
                        CoherentLabel(complex(bq1, bp1), complex(bq2, bp2)),
                        CoherentLabel(complex(cq1, cp1), complex(cq2, cp2)),
                    )
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
    vacuum_deltas = []
    occupied_deltas = []
    for row in report.rows:
        if row.flag == "undefined":
            continue
        delta = row.deltas.get("phase_space_pairing|printed_closed_form")
        if delta is None:
            continue
        if row.scenario.occupation == (0, 0):
            vacuum_deltas.append(delta)
        else:
            occupied_deltas.append(delta)

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
        "vacuum_abs_delta": stats(vacuum_deltas),
        "occupied_abs_delta": stats(occupied_deltas),
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
