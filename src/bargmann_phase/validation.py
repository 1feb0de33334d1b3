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


_OCCUPATIONS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _check_polarizer_unitarity(dim, rng) -> CheckResult:
    worst = 0.0
    for theta in (0.37, math.pi / 2, math.pi, float(rng.uniform(0, math.pi))):
        for _, _, block in fock._polarizer_sectors(theta, dim.n_max, dim.n_max):
            worst = max(worst, float(np.max(np.abs(block.conj().T @ block - np.eye(len(block))))))
    return CheckResult.from_defect(
        "polarizer_unitarity", worst, 1e-10,
        "max |U_N†U_N - 1| over the sectors N <= n_max and sampled angles",
    )


def _check_polarizer_sector_spectrum(dim, rng) -> CheckResult:
    worst = 0.0
    sectors = fock._polarizer_sectors(float(rng.uniform(0.1, 3.0)), dim.n_max, dim.n_max)
    for total, (_, vals, _) in enumerate(sectors):
        worst = max(worst, float(np.max(np.abs(vals - np.arange(-total, total + 1, 2)))))
    return CheckResult.from_defect(
        "polarizer_sector_spectrum", worst, 1e-10,
        "the generator's spectrum on sector N <= n_max is -N, -N+2, ..., N, as chain_weights bins it",
    )


def _check_ladder_commutators(dim, rng) -> CheckResult:
    # the ladder the amplitudes are raised with, a|m> = sqrt(m)|m-1>
    _, _, sqrt_m = fock._ladder_table(dim.n_max, 0)
    a = np.diag(sqrt_m[1:], k=1)
    comm = a @ a.T - a.T @ a - np.eye(dim.n_max + 1)
    # the cutoff level absorbs the failure
    worst = float(np.max(np.abs(comm[: dim.n_max, : dim.n_max])))
    return CheckResult.from_defect(
        "ladder_commutators", worst, 1e-12, "[a, a†] = 1 per mode away from the cutoff level",
    )


def _check_state_purity(dim, rng) -> CheckResult:
    worst = 0.0
    for n1, n2 in _OCCUPATIONS:
        z1, z2 = (complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(2))
        # the weight on m1 + m2 <= n_max in the a modes, and summed over k in the b modes
        p1, p2 = np.abs(fock._number_amplitudes([(z1, n1, z2, n2)], dim.n_max)[0]) ** 2
        kept = float(p1 @ np.cumsum(p2)[::-1])
        worst = max(worst, abs(kept - float(fock.chain_weights(z1, n1, z2, n2, dim).sum())))
    return CheckResult.from_defect(
        "state_purity_and_trace", worst, 1e-12,
        "a cut state's kept weight, from its a-mode amplitudes and from chain_weights",
    )


def _check_evolution_label_map(dim, rng) -> CheckResult:
    theta = float(rng.uniform(0, math.pi))
    z1, z2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
    # the chain's second label, as the routes map it
    q1, p1, q2, p2 = geomphase._chain_labels((z1.real, z1.imag, z2.real, z2.imag),
                                             geomphase._single_trig(theta, 0.0))[0]
    amps = fock._number_amplitudes([(z1, 0, z2, 0), (complex(q1, p1), 0, complex(q2, p2), 0)], dim.n_max)
    worst = 0.0
    for total, (occ1, _, block) in enumerate(fock._polarizer_sectors(theta, dim.n_max, dim.n_max)):
        state, target = amps[:, 0, occ1] * amps[:, 1, total - occ1]
        worst = max(worst, float(np.max(np.abs(block.conj().T @ state - target))))
    return CheckResult.from_defect(
        "evolution_matches_label_map", worst, 1e-10,
        "U_N† on each sector's cut amplitudes of a coherent state gives those of the "
        "label the routes map it to",
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
    s, t = (float(x) for x in rng.uniform(-3, 3, 2))
    trig = geomphase._single_trig(s, t)
    worst, columns = 0.0, []
    # the routes' labels of each unit vertex: M(s) v and the composed M(s) M(t) v,
    # against M(t) then M(s) applied in turn, and against M(s + t)
    for v in np.eye(4).tolist():
        first, composed = geomphase._chain_labels(v, trig)
        in_turn = geomphase._label_map(geomphase._label_map(v, *trig[2:4]), *trig[:2])
        summed = geomphase._label_map(v, math.cos(s + t), math.sin(s + t))
        worst = max(worst, *(abs(x - y) for other in (in_turn, summed) for x, y in zip(composed, other)))
        columns.append(first)
    # M(s) on (q1, p1, q2, p2) is a real 4x4 matrix, orthogonal where M is unitary
    m = np.array(columns)
    worst = max(worst, float(np.max(np.abs(m.T @ m - np.eye(4)))))
    return CheckResult.from_defect(
        "label_map_group_law", worst, 1e-12,
        "the routes' composed label map M(s)M(t) = M(s+t), and M unitary",
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
    evolved = geomphase.random_evolved_scenarios(3, int(rng.integers(0, 2**31)))
    independent = geomphase.random_independent_scenarios(3, int(rng.integers(0, 2**31)))
    for scenario in evolved + independent:
        # the Fock route is within its proven truncation bound of the exact invariant,
        # which the pairing computes; only a gap beyond that bound is a defect
        fock_route = scenario.fock_invariant(dim)
        gap = abs(fock_route.invariant - scenario.pairing_invariant().invariant)
        worst = max(worst, gap - fock_route.bound)
    return CheckResult.from_defect(
        "fock_vs_phase_space_routes", worst, 1e-8,
        "the gap between the truncated-Fock and distributional invariants, beyond "
        "the Fock route's truncation bound",
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
    _check_polarizer_sector_spectrum,
    _check_ladder_commutators,
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
