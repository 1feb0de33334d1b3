import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bargmann_phase import io as io_mod
from bargmann_phase import pdistribution
from bargmann_phase.coherent import label_map_matrix
from bargmann_phase.fock import (
    DensityOperator,
    TruncationDim,
    evolve,
    polarizer_unitary,
    triple_overlap,
    triple_product_trace,
)
from bargmann_phase.geomphase import (
    PhaseScenario,
    StateSpec,
    TriangleConfig,
    circular_delta,
    closed_form_audit,
    closed_form_terms,
    geometric_phase,
    method_reconciliation,
    phase_space_trace,
    phase_space_trace_evolved,
    random_evolved_scenarios,
    random_independent_scenarios,
    run_reconciliation,
)
from bargmann_phase.pdistribution import ORIGIN, PhaseSpacePoint, QuasiProbability, mehta_p_function


def spec(occupation, z1, z2):
    return StateSpec.from_complex(occupation, z1, z2)


def random_spec(rng, scale=0.35, occupation=None):
    if occupation is None:
        occupation = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
    vals = rng.uniform(-scale, scale, 4)
    return spec(occupation, complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def oracle_invariant(specs):
    return oracles.triple_invariant_independent(
        [s.occupation for s in specs],
        [(s.centers[0].to_complex(), s.centers[1].to_complex()) for s in specs],
    )


def test_state_spec_validation_and_views():
    s = spec((1, 0), 0.3 - 0.2j, 0.1j)
    assert s.centers[0].to_complex() == 0.3 - 0.2j
    assert s.label().z2 == 0.1j
    with pytest.raises(ValueError):
        StateSpec((2, 0), ORIGIN, ORIGIN)


def test_state_spec_memo_leaves_equality_and_hash_on_fields():
    a = spec((1, 1), 0.3 - 0.2j, 0.1 + 0.25j)
    b = spec((1, 1), 0.3 - 0.2j, 0.1 + 0.25j)
    dim = TruncationDim(12)
    assert a.quasi_probability() is a.quasi_probability()
    assert a.sector_weights(dim) is a.sector_weights(dim)
    assert a == b and hash(a) == hash(b)
    assert a != spec((1, 0), 0.3 - 0.2j, 0.1 + 0.25j)


def test_scenario_holds_a_matching_initial_state():
    vertex = (PhaseSpacePoint(0.3, -0.2), PhaseSpacePoint(0.1, 0.25))
    first = PhaseScenario.evolved((1, 1), vertex, 0.4, 0.7)
    assert first.initial_state == StateSpec((1, 1), *vertex)
    moved = dataclasses.replace(first, theta1=1.1)
    assert moved.initial_state is first.initial_state
    assert moved == PhaseScenario.evolved((1, 1), vertex, 1.1, 0.7)
    with pytest.raises(ValueError, match="initial_state"):
        dataclasses.replace(first, vertex_a=(ORIGIN, ORIGIN))


def test_state_spec_state_vector_matches_label():
    dim = TruncationDim(16)
    s = spec((0, 0), 0.2 + 0.1j, -0.15j)
    vec = oracles.two_mode_coherent_vector(0.2 + 0.1j, -0.15j, dim.n_max)
    np.testing.assert_allclose(s.state_vector(dim), vec, atol=1e-10)


def test_pairing_matches_analytic_oracle_independent():
    rng = np.random.default_rng(83)
    for _ in range(20):
        specs = [random_spec(rng) for _ in range(3)]
        got = phase_space_trace(*specs)
        want = oracle_invariant(specs)
        assert abs(got.invariant - want) <= 1e-12


def test_pairing_matches_analytic_oracle_mixed_occupations():
    specs = [
        spec((1, 1), 0.2, -0.1j),
        spec((0, 1), 0.1 + 0.1j, 0.25),
        spec((1, 0), -0.3j, 0.05 - 0.2j),
    ]
    got = phase_space_trace(*specs)
    want = oracle_invariant(specs)
    assert abs(got.invariant - want) <= 1e-12


def test_pairing_matches_fock_oracle_independent():
    dim = TruncationDim(20)
    rng = np.random.default_rng(89)
    for _ in range(5):
        specs = [random_spec(rng, scale=0.3) for _ in range(3)]
        pairing = phase_space_trace(*specs)
        fock = triple_overlap(*(s.state_vector(dim) for s in specs))
        assert abs(pairing.invariant - fock.invariant) <= 1e-8


def test_pairing_equal_states_is_one():
    for occupation in [(0, 0), (1, 0), (1, 1)]:
        s = spec(occupation, 0.2 - 0.1j, 0.05 + 0.3j)
        res = phase_space_trace(s, s, s)
        assert abs(res.invariant - 1.0) < 1e-12
        assert res.phase == pytest.approx(0.0, abs=1e-12)


def test_pairing_cyclic_and_reversal_symmetry():
    rng = np.random.default_rng(97)
    for _ in range(5):
        s1, s2, s3 = (random_spec(rng) for _ in range(3))
        base = phase_space_trace(s1, s2, s3)
        cyc = phase_space_trace(s2, s3, s1)
        rev = phase_space_trace(s3, s2, s1)
        assert abs(base.invariant - cyc.invariant) <= 1e-12
        assert abs(base.invariant - np.conjugate(rev.invariant)) <= 1e-12


def test_evolved_pairing_matches_fock_oracle():
    dim = TruncationDim(20)
    rng = np.random.default_rng(101)
    for _ in range(4):
        scenario = PhaseScenario.evolved(
            occupation=(int(rng.integers(0, 2)), int(rng.integers(0, 2))),
            vertex=(
                PhaseSpacePoint(*rng.uniform(-0.3, 0.3, 2)),
                PhaseSpacePoint(*rng.uniform(-0.3, 0.3, 2)),
            ),
            theta1=rng.uniform(0.0, math.pi),
            theta2=rng.uniform(0.0, math.pi),
        )
        pairing = scenario.pairing_invariant()
        fock = scenario.fock_invariant(dim)
        assert abs(pairing.invariant - fock.invariant) <= 1e-8


def dense_fock_invariant(scenario, dim):
    """Tr(rho1 rho2 rho3) from density matrices and the dense polarizer."""
    if scenario.is_evolved:
        rho1 = DensityOperator.from_state_vector(scenario.initial_state.state_vector(dim), dim)
        rho2 = evolve(rho1, polarizer_unitary(scenario.theta1, dim))
        rhos = (rho1, rho2, evolve(rho2, polarizer_unitary(scenario.theta2, dim)))
    else:
        vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
        vecs = [StateSpec(scenario.occupation, *v).state_vector(dim) for v in vertices]
        rhos = [DensityOperator.from_state_vector(v, dim) for v in vecs]
    return triple_product_trace(*rhos).invariant


def test_fock_invariant_matches_dense_trace():
    dim = TruncationDim(25)
    populations = (random_evolved_scenarios(12, seed=41), random_independent_scenarios(12, seed=42))
    for scenarios in populations:
        for occupation in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            scenario = next(s for s in scenarios if s.occupation == occupation)
            got = scenario.fock_invariant(dim).invariant
            assert abs(got - dense_fock_invariant(scenario, dim)) <= 1e-12


def test_fock_invariant_converges_at_n_max_60():
    # |z| up to 2.3 with both modes occupied: at n_max 25 this chain misses
    # the 1e-6 rad gate (delta about 2e-6); at n_max 60 truncation is gone
    scenarios = random_evolved_scenarios(8, seed=62, scale=2.0)
    scenario = next(s for s in scenarios if s.occupation == (1, 1))
    fock = scenario.fock_invariant(TruncationDim(60))
    pairing = scenario.pairing_invariant()
    assert circular_delta(fock.phase, pairing.phase) <= 1e-9


def real_coordinate_invariant(scenario, kernel):
    """The pairing in (q, p) coordinates by the derivative recursion of tests/oracles.py."""
    def state(vertex):
        return scenario.occupation, (vertex[0].q, vertex[0].p, vertex[1].q, vertex[1].p)

    if scenario.is_evolved:
        m1 = label_map_matrix(scenario.theta1)
        maps = (np.eye(2), m1, m1 @ label_map_matrix(scenario.theta2))
        return oracles.real_coordinate_pairing((state(scenario.vertex_a),) * 3, maps, kernel)
    vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
    return oracles.real_coordinate_pairing([state(v) for v in vertices], (np.eye(2),) * 3, kernel)


@pytest.mark.parametrize("kernel", ["derived", "transcribed"])
def test_pairing_matches_real_coordinate_oracle(kernel):
    scenarios = random_evolved_scenarios(40, seed=11) + random_independent_scenarios(40, seed=12)
    assert {(s.is_evolved, s.occupation) for s in scenarios} == {
        (evolved, (n1, n2)) for evolved in (True, False) for n1 in (0, 1) for n2 in (0, 1)
    }
    for scenario in scenarios:
        want = real_coordinate_invariant(scenario, kernel)
        got = scenario.pairing_invariant(kernel).invariant
        assert abs(got - want) <= 1e-12 * abs(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    occupation=st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]),
    centers=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    theta1=st.floats(-math.pi, math.pi),
    theta2=st.floats(-math.pi, math.pi),
    kernel=st.sampled_from(["derived", "transcribed"]),
)
def test_pairing_matches_real_coordinate_oracle_property(occupation, centers, theta1, theta2, kernel):
    vertex = (PhaseSpacePoint(*centers[:2]), PhaseSpacePoint(*centers[2:]))
    scenario = PhaseScenario.evolved(occupation, vertex, theta1, theta2)
    want = real_coordinate_invariant(scenario, kernel)
    got = scenario.pairing_invariant(kernel).invariant
    # relative where |invariant| >= 1; an invariant crossing zero has no relative scale
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_wirtinger_form_of_single_photons_is_one_term():
    # (1/4)(d_q^2 + d_p^2) = d_z d_zbar per mode: the P of |1, 1> is born as
    # one term with z and zbar derivatives on both modes, and the four (q, p)
    # terms of the pfunc schema collect into that same term
    shift = (PhaseSpacePoint(0.3, -0.1), ORIGIN)
    p = mehta_p_function((1, 1), shift=shift)
    assert p.terms == ((1.0, (0.3 - 0.1j, 0j), (0, 1), (0, 1)),)
    # as the second P object of a pairing its variables are 2 and 3
    assert pdistribution._product_vars((((), ()), p.terms[0][2:])) == ((2, 3), (2, 3))
    schema_terms = io_mod._delta_terms((1, 1), shift)
    assert len(schema_terms) == 4
    assert QuasiProbability.from_delta_terms(schema_terms) == p
    vacuum = mehta_p_function((0, 0))
    assert vacuum.terms == ((1.0, (0j, 0j), (), ()),)
    vacuum_schema_terms = io_mod._delta_terms((0, 0), (ORIGIN, ORIGIN))
    assert QuasiProbability.from_delta_terms(vacuum_schema_terms) == vacuum


def test_evolved_pairing_zero_angles_gives_unit_invariant():
    s = spec((1, 1), 0.25, -0.2j)
    res = phase_space_trace_evolved(s, 0.0, 0.0)
    assert abs(res.invariant - 1.0) < 1e-12
    assert res.phase == pytest.approx(0.0, abs=1e-12)


def test_evolved_triangle_vertices_follow_label_map():
    scenario = PhaseScenario.evolved((1, 1), (PhaseSpacePoint(1.0, 0.0), ORIGIN), math.pi / 2, 0.0)
    tri = scenario.triangle()
    b1, b2 = tri.vertex_b
    assert b1.to_complex() == pytest.approx(0.0, abs=1e-15)
    assert b2.to_complex() == pytest.approx(-1j, abs=1e-15)
    # theta2 = 0 keeps the third vertex equal to the second
    c1, c2 = tri.vertex_c
    assert c1.to_complex() == pytest.approx(b1.to_complex(), abs=1e-15)
    assert c2.to_complex() == pytest.approx(b2.to_complex(), abs=1e-15)


def test_transcribed_kernel_fails_equal_states_sanity():
    # the verbatim kernel transcription is kept for the audit trail; its
    # asymmetric second-order block breaks the Tr(rho^3) = 1 sanity bound
    # that the derived kernel satisfies
    s = spec((1, 1), 0.2, 0.1)
    derived = phase_space_trace(s, s, s, kernel="derived")
    transcribed = phase_space_trace(s, s, s, kernel="transcribed")
    assert abs(derived.invariant - 1.0) < 1e-12
    assert abs(transcribed.invariant - 1.0) > 0.1


def test_unknown_kernel_rejected():
    s = spec((0, 0), 0.1, 0.2)
    with pytest.raises(ValueError):
        phase_space_trace(s, s, s, kernel="mystery")


def test_closed_form_terms_hand_worked_triangle():
    # mode-1 vertices (0,0), (1,0), (0,1), mode 2 at the origin:
    # cycle = 1, x1 = y1 = 1, x2 = 1, y2 = 0
    tri = TriangleConfig(
        vertex_a=(ORIGIN, ORIGIN),
        vertex_b=(PhaseSpacePoint(1.0, 0.0), ORIGIN),
        vertex_c=(PhaseSpacePoint(0.0, 1.0), ORIGIN),
    )
    terms = closed_form_terms(tri)
    assert terms.symplectic_sum == 1.0
    assert (terms.x1, terms.y1) == (1.0, 1.0)
    assert (terms.x2, terms.y2) == (1.0, 0.0)
    assert terms.phase((0, 0)) == pytest.approx(1.0, abs=1e-15)
    assert terms.phase((0, 1)) == pytest.approx(1.0, abs=1e-15)
    assert terms.phase((1, 0)) == pytest.approx(1.0 + math.pi / 4, abs=1e-15)
    assert terms.phase((1, 1)) == pytest.approx(1.0 + math.pi / 4, abs=1e-15)


def test_closed_form_origin_triangle_is_zero():
    tri = TriangleConfig((ORIGIN, ORIGIN), (ORIGIN, ORIGIN), (ORIGIN, ORIGIN))
    for occupation in [(0, 0), (1, 1)]:
        res = geometric_phase(tri, occupation)
        assert res.phase == 0.0
        assert res.invariant == 1.0 + 0.0j


def test_closed_form_vacuum_reduction_is_exact():
    # with no occupied mode the form is the bilinear sum, which is the
    # exact coherent-state phase
    rng = np.random.default_rng(103)
    for _ in range(10):
        scenario = PhaseScenario.independent(
            (0, 0),
            *(
                (PhaseSpacePoint(*rng.uniform(-0.6, 0.6, 2)), PhaseSpacePoint(*rng.uniform(-0.6, 0.6, 2)))
                for _ in range(3)
            ),
        )
        printed = scenario.printed_invariant().phase
        exact = scenario.coherent_invariant().phase
        assert circular_delta(printed, exact) < 1e-12


def test_geometric_phase_unit_modulus():
    tri = TriangleConfig(
        (PhaseSpacePoint(0.3, 0.1), ORIGIN),
        (PhaseSpacePoint(-0.2, 0.4), PhaseSpacePoint(0.1, 0.0)),
        (ORIGIN, PhaseSpacePoint(0.2, -0.3)),
    )
    res = geometric_phase(tri, (1, 1))
    assert abs(res.invariant) == pytest.approx(1.0, rel=1e-15)
    assert res.phase == pytest.approx(cmath.phase(res.invariant), abs=1e-12)


def test_circular_delta_wraps():
    assert circular_delta(math.pi - 0.01, -math.pi + 0.01) == pytest.approx(0.02, abs=1e-12)
    assert circular_delta(0.3, 0.1) == pytest.approx(0.2, abs=1e-15)
    assert circular_delta(0.0, math.pi) == pytest.approx(math.pi, abs=1e-15)


def test_method_reconciliation_ok_on_vacuum_triangle():
    scenario = PhaseScenario.independent(
        (0, 0),
        (ORIGIN, ORIGIN),
        (PhaseSpacePoint(1.0, 0.0), ORIGIN),
        (PhaseSpacePoint(0.0, 1.0), ORIGIN),
    )
    row = method_reconciliation(scenario, dim=TruncationDim(20))
    assert row.flag == "ok"
    assert set(row.results) == {
        "fock_oracle",
        "phase_space_pairing",
        "coherent_closed_form",
        "printed_closed_form",
    }
    for method in row.results:
        assert row.phase_of(method) == pytest.approx(1.0, abs=1e-7)
    assert row.abs_delta_max <= 1e-6


def test_method_reconciliation_occupied_reports_printed_delta():
    scenario = PhaseScenario.evolved(
        (1, 1), (PhaseSpacePoint(0.3, 0.0), PhaseSpacePoint(0.0, 0.2)), 0.9, 1.1
    )
    row = method_reconciliation(scenario, dim=TruncationDim(25))
    assert row.flag == "ok"
    assert "coherent_closed_form" not in row.results
    assert "fock_oracle|phase_space_pairing" in row.deltas
    # the reference form's delta is recorded but kept out of the gate
    assert "phase_space_pairing|printed_closed_form" in row.deltas
    assert row.abs_delta_max <= 1e-6


@pytest.mark.parametrize("occupation, flag", [((0, 0), "disagree"), ((1, 1), "ok")])
def test_method_reconciliation_gates_printed_form_only_for_vacuum(occupation, flag):
    # a printed phase 0.1 rad off is recorded either way, and fails the gate
    # only for occupation (0, 0), where the printed form is exact
    scenario = PhaseScenario.evolved(
        occupation, (PhaseSpacePoint(0.3, 0.0), PhaseSpacePoint(0.0, 0.2)), 0.9, 1.1
    )
    base = method_reconciliation(scenario, dim=TruncationDim(20))
    printed = base.results["printed_closed_form"]
    results = {**base.results, "printed_closed_form": dataclasses.replace(
        printed, invariant=printed.invariant * cmath.exp(0.1j), phase=printed.phase + 0.1
    )}
    row = method_reconciliation(scenario, dim=TruncationDim(20), results=results)
    assert row.flag == flag
    pair = "fock_oracle|printed_closed_form"
    assert abs(abs(row.deltas[pair] - base.deltas[pair]) - 0.1) <= 1e-9
    gated = [d for name, d in row.deltas.items() if flag == "disagree" or "printed" not in name]
    assert row.abs_delta_max == max(gated)


def test_method_reconciliation_undefined_propagates():
    # |Delta| = 1 on an occupied mode zeroes the (1 - |Delta|^2) overlap
    # factor, so every invariant vanishes and no phase is defined
    scenario = PhaseScenario.independent(
        (1, 1),
        (ORIGIN, ORIGIN),
        (PhaseSpacePoint(1.0, 0.0), ORIGIN),
        (PhaseSpacePoint(0.0, 1.0), ORIGIN),
    )
    row = method_reconciliation(scenario, dim=TruncationDim(20))
    assert row.flag == "undefined"
    assert row.abs_delta_max is None
    assert row.deltas == {}
    assert row.phase_of("fock_oracle") is None
    assert row.phase_of("printed_closed_form") is None


def test_random_scenario_generators_are_seeded_and_bounded():
    a = random_evolved_scenarios(6, seed=5)
    b = random_evolved_scenarios(6, seed=5)
    assert a == b
    assert a != random_evolved_scenarios(6, seed=6)
    for scenario in a:
        assert scenario.is_evolved
        assert 0.0 <= scenario.theta1 < math.pi
        assert 0.0 <= scenario.theta2 < math.pi
        for pt in scenario.vertex_a:
            assert abs(pt.q) <= 0.35 and abs(pt.p) <= 0.35
    c = random_independent_scenarios(4, seed=9)
    assert c == random_independent_scenarios(4, seed=9)
    for scenario in c:
        assert not scenario.is_evolved
        assert scenario.vertex_b is not None and scenario.vertex_c is not None


def test_run_reconciliation_small_suite_all_ok():
    scenarios = random_evolved_scenarios(3, seed=21) + random_independent_scenarios(3, seed=22)
    report = run_reconciliation(scenarios, dim=TruncationDim(22), tolerance=1e-6)
    assert report.all_ok
    assert report.disagreements == 0
    assert len(report.rows) == 6
    assert report.n_max == 22


def test_closed_form_audit_quantifies_discrepancy():
    scenarios = random_independent_scenarios(10, seed=33) + random_evolved_scenarios(6, seed=34)
    report = run_reconciliation(scenarios, dim=TruncationDim(22))
    audit = closed_form_audit(report)
    assert audit["vacuum_abs_delta"]["count"] > 0
    assert audit["occupied_abs_delta"]["count"] > 0
    assert audit["vacuum_abs_delta"]["max"] < 1e-9
    assert audit["occupied_abs_delta"]["max"] > 1e-3
    ratio = audit["small_displacement_phase_ratio"]
    assert ratio["count"] >= 6
    assert 1.8 < ratio["mean"] < 2.2
    flip = audit["sign_flip_probe"]
    assert flip["abs_delta"] is not None
    assert flip["abs_delta"] > 2.5
    assert "finding" in audit
