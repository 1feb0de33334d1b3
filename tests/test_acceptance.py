"""Acceptance gate.

Each test covers one release criterion at its stated tolerance and prints
a single PASS/FAIL line (visible with pytest -s or on failure). The random
populations are seeded, so every run sees the same configurations.
"""
import math

import numpy as np
import pytest

import oracles
from bargmann_phase.coherent import CoherentLabel, bargmann_triple_coherent, overlap
from bargmann_phase.fock import (
    TruncationDim,
    polarizer_unitary,
    single_mode_displacement,
    triple_product_trace,
)
from bargmann_phase.geomphase import (
    StateSpec,
    closed_form_audit,
    phase_space_trace,
    random_evolved_scenarios,
    random_independent_scenarios,
    run_reconciliation,
)
from bargmann_phase.pdistribution import PhaseSpacePoint, mehta_p_function
from oracles import (
    constant_function,
    displaced_fock_density,
    gaussian_smear_function,
    pair,
    reconstruct_density_element,
)

PHASE_TOL = 1e-6
OVERLAP_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
TRACE_TOL = 1e-10
UNITARITY_TOL = 1e-10
IDENTITY_TOL = 1e-12
AREA_TOL = 1e-12


def report(passed: bool, text: str) -> bool:
    print(f"[{'PASS' if passed else 'FAIL'}] {text}")
    return passed


@pytest.fixture(scope="module")
def random_suite_report():
    scenarios = random_evolved_scenarios(100, seed=1) + random_independent_scenarios(
        100, seed=2
    )
    return run_reconciliation(scenarios, dim=TruncationDim(25), tolerance=PHASE_TOL)


def test_criterion_1_phase_routes_agree(random_suite_report):
    deltas = []
    undefined = 0
    for row in random_suite_report.rows:
        if row.flag == "undefined":
            undefined += 1
            continue
        deltas.append(row.deltas["fock_oracle|phase_space_pairing"])
    worst = max(deltas)
    ok = worst <= PHASE_TOL and undefined == 0 and len(deltas) == 200
    assert report(
        ok,
        "criterion 1: truncated-Fock and phase-space phases agree on "
        f"{len(deltas)} random configurations (100 polarizer chains + 100 "
        f"independent triangles, n_max 25), max |dphase| = {worst:.3e} "
        f"<= {PHASE_TOL:g}",
    )


def test_criterion_2_coherent_overlap_closed_form():
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(60):
        vals = rng.uniform(-0.8, 0.8, 8)
        a = CoherentLabel(complex(vals[0], vals[1]), complex(vals[2], vals[3]))
        b = CoherentLabel(complex(vals[4], vals[5]), complex(vals[6], vals[7]))
        series = oracles.overlap_series((a.z1, a.z2), (b.z1, b.z2), 30)
        worst = max(worst, abs(overlap(a, b) - series))
    ok = worst <= OVERLAP_TOL
    assert report(
        ok,
        "criterion 2: coherent overlap closed form matches the truncated "
        f"series on 60 random label pairs, max error = {worst:.3e} "
        f"<= {OVERLAP_TOL:g}",
    )


def test_criterion_3_density_reconstruction():
    dim = TruncationDim(20)
    shifts = [
        (PhaseSpacePoint(0.0, 0.0), PhaseSpacePoint(0.0, 0.0)),
        (PhaseSpacePoint(0.25, -0.1), PhaseSpacePoint(0.05, 0.2)),
    ]
    worst = 0.0
    worst_trace = 0.0
    for occupation in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for shift in shifts:
            p = mehta_p_function(occupation, shift=shift)
            worst_trace = max(worst_trace, abs(pair(p, constant_function()) - 1.0))
            rho = displaced_fock_density(
                shift[0].to_complex(), occupation[0],
                shift[1].to_complex(), occupation[1], dim,
            )
            for m1 in range(4):
                for m2 in range(4):
                    for n1 in range(4):
                        for n2 in range(4):
                            got = reconstruct_density_element(p, (m1, m2), (n1, n2))
                            want = rho.matrix[dim.index(m1, m2), dim.index(n1, n2)]
                            worst = max(worst, abs(got - want))
    ok = worst <= RECONSTRUCTION_TOL and worst_trace <= TRACE_TOL
    assert report(
        ok,
        "criterion 3: density elements reconstructed from the P objects, "
        f"max error = {worst:.3e} <= {RECONSTRUCTION_TOL:g}, trace defect = "
        f"{worst_trace:.3e} <= {TRACE_TOL:g}",
    )


def test_criterion_4_unitarity():
    dim = TruncationDim(25)
    eye = np.eye(dim.dim)
    worst = 0.0
    for theta in (0.37, math.pi / 2, 2.9, math.pi):
        u = polarizer_unitary(theta, dim)
        worst = max(worst, float(np.max(np.abs(u.conj().T @ u - eye))))
    rng = np.random.default_rng(401)
    eye1 = np.eye(dim.states_per_mode)
    for _ in range(5):
        z = complex(*rng.uniform(-0.5, 0.5, 2))
        d = single_mode_displacement(z, dim.n_max)
        worst = max(worst, float(np.max(np.abs(d.conj().T @ d - eye1))))
    ok = worst <= UNITARITY_TOL
    assert report(
        ok,
        "criterion 4: polarizer (including theta = pi) and displacement "
        f"matrices unitary, max defect = {worst:.3e} <= {UNITARITY_TOL:g}",
    )


def test_criterion_5_algebraic_identities():
    rng = np.random.default_rng(501)
    worst = 0.0
    dim = TruncationDim(15)
    for _ in range(10):
        specs = []
        rhos = []
        for _ in range(3):
            occupation = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            vals = rng.uniform(-0.3, 0.3, 4)
            z1, z2 = complex(vals[0], vals[1]), complex(vals[2], vals[3])
            specs.append(StateSpec.from_complex(occupation, z1, z2))
            rhos.append(
                displaced_fock_density(z1, occupation[0], z2, occupation[1], dim)
            )
        base_p = phase_space_trace(specs[0], specs[1], specs[2]).invariant
        cyc_p = phase_space_trace(specs[1], specs[2], specs[0]).invariant
        rev_p = phase_space_trace(specs[2], specs[1], specs[0]).invariant
        base_f = triple_product_trace(rhos[0], rhos[1], rhos[2]).invariant
        cyc_f = triple_product_trace(rhos[1], rhos[2], rhos[0]).invariant
        rev_f = triple_product_trace(rhos[2], rhos[1], rhos[0]).invariant
        equal = phase_space_trace(specs[0], specs[0], specs[0]).invariant
        worst = max(
            worst,
            abs(base_p - cyc_p),
            abs(base_p - np.conjugate(rev_p)),
            abs(base_f - cyc_f),
            abs(base_f - np.conjugate(rev_f)),
            abs(equal - 1.0),
        )
    ok = worst <= IDENTITY_TOL
    assert report(
        ok,
        "criterion 5: cyclic invariance, conjugation under reversal, and "
        f"unit self-invariant hold, max defect = {worst:.3e} <= {IDENTITY_TOL:g}",
    )


def test_criterion_6_coherent_triangle_area_law():
    rng = np.random.default_rng(601)
    worst = 0.0
    for _ in range(50):
        vals = rng.uniform(-0.9, 0.9, 6)
        labels = [CoherentLabel(complex(vals[2 * k], vals[2 * k + 1]), 0.0) for k in range(3)]
        res = bargmann_triple_coherent(*labels)
        area = oracles.shoelace_signed_area(
            *(((lab.z1.real, lab.z1.imag)) for lab in labels)
        )
        worst = max(worst, abs(res.phase - 2.0 * area))
    reference = bargmann_triple_coherent(
        CoherentLabel(0.0, 0.0), CoherentLabel(1.0, 0.0), CoherentLabel(1j, 0.0)
    )
    ok = worst <= AREA_TOL and reference.phase == 1.0
    assert report(
        ok,
        "criterion 6: coherent triple phase equals twice the signed triangle "
        f"area on 50 random triangles (max defect {worst:.3e} <= {AREA_TOL:g}) "
        f"and the unit right triangle gives exactly 1 rad",
    )


def test_criterion_7_reference_closed_form_audited(random_suite_report):
    audit = closed_form_audit(random_suite_report)
    vacuum = audit["vacuum_abs_delta"]
    occupied = audit["occupied_abs_delta"]
    ratio = audit["small_displacement_phase_ratio"]
    flip = audit["sign_flip_probe"]
    ok = (
        vacuum["count"] > 20
        and occupied["count"] > 100
        and vacuum["max"] < 1e-9
        and occupied["max"] > 1e-3
        and ratio["count"] >= 6
        and 1.8 < ratio["mean"] < 2.2
        and flip["abs_delta"] is not None
        and flip["abs_delta"] > 2.5
        and bool(audit["finding"])
    )
    assert report(
        ok,
        "criterion 7: reference closed form audited against the exact phase: "
        f"exact for vacuum (max delta {vacuum['max']:.2e} over {vacuum['count']} "
        f"configs) but not for occupied modes (max delta {occupied['max']:.2e} "
        f"over {occupied['count']}); small-shift phase ratio {ratio['mean']:.3f} "
        f"(arctan terms duplicate the bilinear sum), sign-flip probe delta "
        f"{flip['abs_delta']:.3f} rad (pi-size jump the smooth form cannot track)",
    )


def test_criterion_8_negativity_witness():
    sigma = 0.1
    p11 = mehta_p_function((1, 1))
    m1 = pair(p11, gaussian_smear_function(sigma, modes=(1,)))
    m2 = pair(p11, gaussian_smear_function(sigma, modes=(2,)))
    joint = pair(p11, gaussian_smear_function(sigma))
    vacuum = pair(mehta_p_function((0, 0)), gaussian_smear_function(sigma))
    expected = 1.0 - 1.0 / (2.0 * sigma**2)
    ok = (
        abs(m1 - expected) < 1e-9
        and abs(m2 - expected) < 1e-9
        and m1.real < 0
        and abs(joint - m1 * m2) < 1e-8
        and joint.real > 0
        and abs(vacuum - 1.0) < 1e-9
    )
    assert report(
        ok,
        "criterion 8: Gaussian-smear witness is negative on each occupied "
        f"mode marginal ({m1.real:.1f} at sigma = {sigma}), factorizes over "
        f"modes ({joint.real:.1f} = ({m1.real:.1f})^2 > 0), and stays positive "
        "for the vacuum",
    )
