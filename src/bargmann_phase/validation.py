"""Named invariant checks backing the validate command.

Each check returns a CheckResult with the measured defect and its
threshold, so a report can show how much margin a pass had. Checks use
library routes against algebraic identities and cross-route agreement;
the test suite additionally compares against fully independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import coherent, fock, geomphase, pdistribution

__all__ = ["CheckResult", "run_all"]


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


_OCCUPATIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _drawn_state(occupation, rng) -> geomphase.StateSpec:
    return geomphase.StateSpec(occupation, *geomphase._random_mode_pair(rng, 0.4))


def _check_pairing_pure_trace(dim, rng) -> CheckResult:
    worst = 0.0
    for occ in _OCCUPATIONS:
        state = _drawn_state(occ, rng)
        worst = max(worst, abs(geomphase.phase_space_trace(state, state, state).invariant - 1.0))
    return CheckResult.from_defect(
        "pairing_pure_state_trace", worst, 1e-12,
        "Tr rho^3 = 1 from the pairing of three equal states, every occupation",
    )


def _check_pairing_two_state_triangle(dim, rng) -> CheckResult:
    worst = 0.0
    for occ in _OCCUPATIONS:
        a, b = _drawn_state(occ, rng), _drawn_state(occ, rng)
        # Tr(rho_a rho_a rho_b) = |<a|b>|^2, and per mode |<n|D(delta)|n>|^2 is
        # e^{-|delta|^2} times the Laguerre factor (1 - |delta|^2)^2 for n = 1
        exact = 1.0
        for n, ca, cb in zip(occ, a.centers, b.centers):
            x = (ca.q - cb.q) ** 2 + (ca.p - cb.p) ** 2
            exact *= math.exp(-x) * (1.0 - x) ** (2 * n)
        worst = max(worst, abs(geomphase.phase_space_trace(a, a, b).invariant - exact))
    return CheckResult.from_defect(
        "pairing_two_state_triangle", worst, 1e-12,
        "Tr(rho_a rho_a rho_b) = prod over modes of e^{-|delta|^2} (1 - |delta|^2)^(2 n)",
    )


def _check_pairing_translation(dim, rng) -> CheckResult:
    worst = 0.0
    for _ in range(4):
        states = [_drawn_state((int(rng.integers(0, 2)), int(rng.integers(0, 2))), rng)
                  for _ in range(3)]
        w1, w2 = geomphase._random_mode_pair(rng, 0.4)
        moved = [replace(s, center1=s.center1.shifted(w1.q, w1.p), center2=s.center2.shifted(w2.q, w2.p))
                 for s in states]
        worst = max(worst, abs(geomphase.phase_space_trace(*states).invariant
                               - geomphase.phase_space_trace(*moved).invariant))
    return CheckResult.from_defect(
        "pairing_translation_invariance", worst, 1e-12,
        "moving all three centers by one w leaves the phase-space invariant unchanged",
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
    _check_pairing_pure_trace,
    _check_pairing_two_state_triangle,
    _check_pairing_translation,
    _check_pairing_symmetries,
    _check_routes_agree,
    _check_printed_vacuum_reduction,
)


def run_all(n_max: int = 18, seed: int = 7) -> list:
    """Run every named invariant check at the given truncation."""
    dim = fock.TruncationDim(n_max)
    rng = np.random.default_rng(seed)
    return [check(dim, rng) for check in _CHECKS]
