"""Named invariant checks backing the validate command.

Each check returns a CheckResult with the measured defect and its
threshold, so a report can show how much margin a pass had. Checks use
library routes against algebraic identities and cross-route agreement;
the test suite additionally compares against fully independent oracles.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import coherent, fock, geomphase, pdistribution

__all__ = ["CheckResult", "NumericalFunction", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str

    @classmethod
    def from_defect(cls, name: str, value: float, threshold: float, detail: str) -> "CheckResult":
        return cls(name=name, passed=bool(value <= threshold), value=float(value),
                   threshold=float(threshold), detail=detail)


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


def _check_polarizer_unitarity(dim, rng) -> CheckResult:
    worst = 0.0
    eye = np.eye(dim.dim)
    for theta in (0.37, math.pi / 2, math.pi, float(rng.uniform(0, math.pi))):
        u = fock.polarizer_unitary(theta, dim)
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - eye))))
    return CheckResult.from_defect(
        "polarizer_unitarity", worst, 1e-10, "max |U†U - 1| over sampled angles"
    )


def _check_polarizer_number_conservation(dim, rng) -> CheckResult:
    u = fock.polarizer_unitary(float(rng.uniform(0.1, 3.0)), dim)
    m = dim.states_per_mode
    totals = np.add.outer(np.arange(m), np.arange(m)).reshape(-1)
    mismatch = totals[:, None] != totals[None, :]
    worst = float(np.max(np.abs(u[mismatch])))
    return CheckResult.from_defect(
        "polarizer_number_conservation", worst, 0.0,
        "entries between different total-photon sectors are exact zeros",
    )


def _check_ladder_commutators(dim, rng) -> CheckResult:
    a1 = fock.mode_annihilation(1, dim)
    a2 = fock.mode_annihilation(2, dim)
    m = dim.states_per_mode
    occ1 = np.repeat(np.arange(m), m)
    occ2 = np.tile(np.arange(m), m)
    eye = np.eye(dim.dim)
    worst = 0.0
    for a, occ in ((a1, occ1), (a2, occ2)):
        comm = a @ a.conj().T - a.conj().T @ a
        keep = occ < dim.n_max  # the cutoff sector absorbs the failure
        worst = max(worst, float(np.max(np.abs((comm - eye)[np.ix_(keep, keep)]))))
    cross = a1 @ a2.conj().T - a2.conj().T @ a1
    worst = max(worst, float(np.max(np.abs(cross))))
    return CheckResult.from_defect(
        "ladder_commutators", worst, 1e-12,
        "[a_i, a_i†] = 1 away from the cutoff sector and [a_1, a_2†] = 0",
    )


def _check_displacement_unitarity(dim, rng) -> CheckResult:
    worst = 0.0
    eye = np.eye(dim.dim)
    for _ in range(3):
        z1, z2 = (complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        d = fock.displacement_operator(z1, z2, dim)
        worst = max(worst, float(np.max(np.abs(d.conj().T @ d - eye))))
    return CheckResult.from_defect(
        "displacement_unitarity", worst, 1e-10, "max |D†D - 1| over sampled displacements"
    )


def _check_displacement_composition(dim, rng) -> CheckResult:
    import cmath

    worst = 0.0
    for _ in range(3):
        za, zb = (complex(*rng.uniform(-0.25, 0.25, 2)) for _ in range(2))
        lhs = fock.single_mode_displacement(za, dim.n_max) @ fock.single_mode_displacement(
            zb, dim.n_max
        )
        phase = cmath.exp(-1j * (np.conjugate(za) * zb).imag)
        rhs = phase * fock.single_mode_displacement(za + zb, dim.n_max)
        # truncation touches the top occupations; compare the guarded block
        keep = dim.n_max // 2
        worst = max(worst, float(np.max(np.abs((lhs - rhs)[:keep, :keep]))))
    return CheckResult.from_defect(
        "displacement_composition", worst, 1e-10,
        "D(a)D(b) = e^{-i Im(conj(a) b)} D(a+b) on the guarded block",
    )


def _check_state_purity(dim, rng) -> CheckResult:
    worst = 0.0
    for occ in ((0, 0), (1, 0), (1, 1)):
        z1, z2 = (complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(2))
        rho = fock.DensityOperator.displaced_fock(z1, occ[0], z2, occ[1], dim)
        # hermiticity raises; the weight cut off by the cutoff is measured, not raised
        rho.validate(trace_tol=math.inf, purity_tol=None)
        worst = max(worst, abs(rho.purity() - 1.0), abs(rho.trace() - 1.0))
    return CheckResult.from_defect(
        "state_purity_and_trace", worst, 1e-8, "displaced Fock states are unit-trace and pure"
    )


def _check_evolution_label_map(dim, rng) -> CheckResult:
    theta = float(rng.uniform(0, math.pi))
    z1, z2 = (complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2))
    rho = fock.DensityOperator.displaced_fock(z1, 0, z2, 0, dim)
    evolved = fock.evolve(rho, fock.polarizer_unitary(theta, dim))
    mapped = coherent.polarizer_label_map(theta, coherent.CoherentLabel(z1, z2))
    target = fock.DensityOperator.displaced_fock(mapped.z1, 0, mapped.z2, 0, dim)
    worst = float(np.max(np.abs(evolved.matrix - target.matrix)))
    return CheckResult.from_defect(
        "evolution_matches_label_map", worst, 1e-10,
        "U† rho U of a coherent state is the coherent state of the mapped label",
    )


def _check_overlap_identities(dim, rng) -> CheckResult:
    worst = 0.0
    for _ in range(6):
        a = coherent.CoherentLabel(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
        b = coherent.CoherentLabel(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
        ab = coherent.overlap(a, b)
        worst = max(worst, abs(ab - np.conjugate(coherent.overlap(b, a))))
        dist = abs(a.z1 - b.z1) ** 2 + abs(a.z2 - b.z2) ** 2
        worst = max(worst, abs(abs(ab) ** 2 - math.exp(-dist)))
        worst = max(worst, abs(coherent.overlap(a, a) - 1.0))
    return CheckResult.from_defect(
        "overlap_identities", worst, 1e-12,
        "hermiticity, unit norm, |<a|b>|^2 = exp(-|a-b|^2)",
    )


def _check_label_map_group_law(dim, rng) -> CheckResult:
    s, t = rng.uniform(-3, 3, 2)
    ms, mt = coherent.label_map_matrix(float(s)), coherent.label_map_matrix(float(t))
    comp = coherent.label_map_matrix(float(s + t))
    worst = float(np.max(np.abs(ms @ mt - comp)))
    worst = max(worst, float(np.max(np.abs(ms.conj().T @ ms - np.eye(2)))))
    return CheckResult.from_defect(
        "label_map_group_law", worst, 1e-12, "M(s)M(t) = M(s+t) and M unitary"
    )


def _check_triple_symmetries(dim, rng) -> CheckResult:
    labels = [
        coherent.CoherentLabel(complex(*rng.uniform(-0.8, 0.8, 2)), complex(*rng.uniform(-0.8, 0.8, 2)))
        for _ in range(3)
    ]
    base = coherent.bargmann_triple_coherent(*labels)
    cyc = coherent.bargmann_triple_coherent(labels[1], labels[2], labels[0])
    rev = coherent.bargmann_triple_coherent(labels[2], labels[1], labels[0])
    worst = abs(base.invariant - cyc.invariant)
    worst = max(worst, abs(base.invariant - np.conjugate(rev.invariant)))
    return CheckResult.from_defect(
        "triple_cyclicity_and_reversal", worst, 1e-12,
        "invariant is cyclic; reversing the order conjugates it",
    )


def _check_trace_normalization(dim, rng) -> CheckResult:
    worst = 0.0
    one = pdistribution.constant_function()
    for occ in ((0, 0), (0, 1), (1, 0), (1, 1)):
        shift = (
            pdistribution.PhaseSpacePoint(*rng.uniform(-0.4, 0.4, 2)),
            pdistribution.PhaseSpacePoint(*rng.uniform(-0.4, 0.4, 2)),
        )
        p = pdistribution.mehta_p_function(occ, shift)
        worst = max(worst, abs(pdistribution.pair(p, one) - 1.0))
    return CheckResult.from_defect(
        "p_trace_normalization", worst, 1e-10, "pair(P, 1) = 1 for all supported states"
    )


def _check_reconstruction(dim, rng) -> CheckResult:
    worst = 0.0
    for occ in ((0, 0), (0, 1), (1, 1)):
        z1, z2 = (complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2))
        p = pdistribution.mehta_p_function(
            occ,
            (
                pdistribution.PhaseSpacePoint.from_complex(z1),
                pdistribution.PhaseSpacePoint.from_complex(z2),
            ),
        )
        rho = fock.DensityOperator.displaced_fock(z1, occ[0], z2, occ[1], dim)
        for m1 in range(3):
            for m2 in range(3):
                for n1 in range(3):
                    for n2 in range(3):
                        rec = pdistribution.reconstruct_density_element(p, (m1, m2), (n1, n2))
                        ora = rho.matrix[dim.index(m1, m2), dim.index(n1, n2)]
                        worst = max(worst, abs(rec - ora))
    return CheckResult.from_defect(
        "density_reconstruction", worst, 1e-8,
        "pair(P, <m|.|n>) matches truncated matrix elements",
    )


def _check_pairing_linearity(dim, rng) -> CheckResult:
    f = pdistribution.fock_element_function((1, 0), (1, 0))
    pa = pdistribution.mehta_p_function((1, 0))
    pb = pdistribution.mehta_p_function(
        (0, 1),
        (
            pdistribution.PhaseSpacePoint(0.2, -0.1),
            pdistribution.PhaseSpacePoint(0.1, 0.3),
        ),
    )
    mix = pa.scaled(0.3).combined(pb.scaled(0.7 + 0.2j))
    lhs = pdistribution.pair(mix, f)
    rhs = 0.3 * pdistribution.pair(pa, f) + (0.7 + 0.2j) * pdistribution.pair(pb, f)
    return CheckResult.from_defect(
        "pairing_linearity", abs(lhs - rhs), 1e-12, "pair is linear in the P argument"
    )


def _check_translation_covariance(dim, rng) -> CheckResult:
    d = rng.uniform(-0.3, 0.3, 4)
    shift = (
        pdistribution.PhaseSpacePoint(float(d[0]), float(d[1])),
        pdistribution.PhaseSpacePoint(float(d[2]), float(d[3])),
    )
    p = pdistribution.mehta_p_function((1, 1))
    f = pdistribution.fock_element_function((1, 1), (0, 1))
    lhs = pdistribution.pair(p.shifted(*shift), f)
    rhs = pdistribution.pair(p, f.translated(d))
    return CheckResult.from_defect(
        "translation_covariance", abs(lhs - rhs), 1e-12,
        "pairing a shifted P equals pairing against the translated function",
    )


def _check_negativity_witness(dim, rng) -> CheckResult:
    p11 = pdistribution.mehta_p_function((1, 1))
    p00 = pdistribution.mehta_p_function((0, 0))
    sigma = 0.1
    m1 = pdistribution.pair(p11, pdistribution.gaussian_smear_function(sigma, modes=(1,)))
    m2 = pdistribution.pair(p11, pdistribution.gaussian_smear_function(sigma, modes=(2,)))
    both = pdistribution.pair(p11, pdistribution.gaussian_smear_function(sigma, modes=(1, 2)))
    vac = pdistribution.pair(p00, pdistribution.gaussian_smear_function(sigma, modes=(1,)))
    ok = (
        m1.real < 0
        and m2.real < 0
        and abs(both - m1 * m2) < 1e-8
        and vac.real > 0
        and abs(m1.imag) < 1e-12
    )
    return CheckResult(
        name="negativity_witness",
        passed=bool(ok),
        value=float(m1.real),
        threshold=0.0,
        detail="single-photon marginal smear is negative (value shown); "
        "product smear factorizes; vacuum stays positive",
    )


def _check_symbolic_derivatives(dim, rng) -> CheckResult:
    f = pdistribution.fock_element_function((1, 1), (1, 0))
    numeric = NumericalFunction(lambda x: f.value(x), nvars=4)
    point = tuple(rng.uniform(-0.3, 0.3, 4))
    worst = 0.0
    for orders in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 1), (1, 1, 2, 0)):
        worst = max(worst, abs(f.partial(orders, point) - numeric.partial(orders, point)))
    return CheckResult.from_defect(
        "symbolic_vs_finite_difference", worst, 2e-4,
        "closed-form partials match central differences at their accuracy floor",
    )


def _check_pairing_symmetries(dim, rng) -> CheckResult:
    specs = [
        geomphase.StateSpec.from_complex(
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
            complex(*rng.uniform(-0.3, 0.3, 2)),
            complex(*rng.uniform(-0.3, 0.3, 2)),
        )
        for _ in range(3)
    ]
    base = geomphase.phase_space_trace(*specs).invariant
    cyc = geomphase.phase_space_trace(specs[1], specs[2], specs[0]).invariant
    rev = geomphase.phase_space_trace(specs[2], specs[1], specs[0]).invariant
    worst = abs(base - cyc)
    worst = max(worst, abs(base - np.conjugate(rev)))
    return CheckResult.from_defect(
        "pairing_cyclicity_and_reversal", worst, 1e-12,
        "phase-space invariant is cyclic and conjugates under reversal",
    )


def _check_routes_agree(dim, rng) -> CheckResult:
    worst = 0.0
    for scenario in geomphase.random_evolved_scenarios(3, int(rng.integers(0, 2**31))):
        f = scenario.fock_invariant(dim).invariant
        g = scenario.pairing_invariant().invariant
        worst = max(worst, abs(f - g))
    for scenario in geomphase.random_independent_scenarios(3, int(rng.integers(0, 2**31))):
        f = scenario.fock_invariant(dim).invariant
        g = scenario.pairing_invariant().invariant
        worst = max(worst, abs(f - g))
    return CheckResult.from_defect(
        "fock_vs_phase_space_routes", worst, 1e-8,
        "truncated-matrix and distributional invariants agree",
    )


def _check_printed_vacuum_reduction(dim, rng) -> CheckResult:
    worst = 0.0
    for _ in range(4):
        scenario = geomphase.PhaseScenario.independent((0, 0), *(tuple(
            pdistribution.PhaseSpacePoint(*rng.uniform(-0.5, 0.5, 2)) for _ in range(2)
        ) for _ in range(3)))
        printed = scenario.printed_invariant().phase
        worst = max(worst, geomphase.circular_delta(printed, scenario.coherent_invariant().phase))
    return CheckResult.from_defect(
        "reference_form_vacuum_reduction", worst, 1e-12,
        "with no occupied modes the reference form is the coherent closed form's bilinear sum",
    )


_CHECKS = (
    _check_polarizer_unitarity,
    _check_polarizer_number_conservation,
    _check_ladder_commutators,
    _check_displacement_unitarity,
    _check_displacement_composition,
    _check_state_purity,
    _check_evolution_label_map,
    _check_overlap_identities,
    _check_label_map_group_law,
    _check_triple_symmetries,
    _check_trace_normalization,
    _check_reconstruction,
    _check_pairing_linearity,
    _check_translation_covariance,
    _check_negativity_witness,
    _check_symbolic_derivatives,
    _check_pairing_symmetries,
    _check_routes_agree,
    _check_printed_vacuum_reduction,
)


def run_all(n_max: int = 18, seed: int = 7) -> list:
    """Run every named invariant check at the given truncation."""
    dim = fock.TruncationDim(n_max)
    rng = np.random.default_rng(seed)
    return [check(dim, rng) for check in _CHECKS]
