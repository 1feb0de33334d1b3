import cmath
import math

import numpy as np
import pytest

import oracles
from bargmann_phase import geomphase
from bargmann_phase.coherent import CoherentLabel, bargmann_triple_coherent, overlap


def random_label(rng, scale=0.8):
    re = rng.uniform(-scale, scale, 4)
    return CoherentLabel(z1=complex(re[0], re[1]), z2=complex(re[2], re[3]))


def routes_label_map(theta: float, v: CoherentLabel) -> CoherentLabel:
    """The label map the routes run (geomphase._label_map), on a CoherentLabel."""
    q1, p1, q2, p2 = geomphase._label_map(
        (v.z1.real, v.z1.imag, v.z2.real, v.z2.imag), math.cos(theta), math.sin(theta))
    return CoherentLabel(complex(q1, p1), complex(q2, p2))


def routes_label_matrix(theta: float) -> np.ndarray:
    """The 2x2 complex matrix of the routes' label map, from the labels it gives
    (1, 0) and (0, 1)."""
    columns = [routes_label_map(theta, CoherentLabel(*unit)) for unit in ((1 + 0j, 0j), (0j, 1 + 0j))]
    return np.array([[col.z1 for col in columns], [col.z2 for col in columns]])


def test_overlap_matches_truncated_series():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b = random_label(rng), random_label(rng)
        series = oracles.overlap_series((a.z1, a.z2), (b.z1, b.z2), 30)
        assert abs(overlap(a, b) - series) <= 1e-10


def test_overlap_unit_norm_and_hermiticity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b = random_label(rng), random_label(rng)
        assert overlap(a, a) == pytest.approx(1.0, abs=1e-14)
        assert overlap(a, b) == pytest.approx(np.conjugate(overlap(b, a)), abs=1e-15)
        assert abs(overlap(a, b)) <= 1.0 + 1e-15


def test_overlap_modulus_from_label_distance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a, b = random_label(rng), random_label(rng)
        dist_sq = abs(a.z1 - b.z1) ** 2 + abs(a.z2 - b.z2) ** 2
        assert abs(overlap(a, b)) == pytest.approx(math.exp(-dist_sq / 2), rel=1e-13)


def test_overlap_of_huge_labels_is_non_finite_rather_than_an_error():
    def pair_at(x):
        # two labels two ulps apart
        return (CoherentLabel(z1=complex(x), z2=0j),
                CoherentLabel(z1=complex(math.nextafter(math.nextafter(x, 2 * x), 2 * x)), z2=0j))

    # at 1e100 rounding leaves the exponent's real part far above exp's range;
    # at 1e200 the squared norms overflow
    a, b = pair_at(1e100)
    assert not cmath.isfinite(overlap(b, a))
    assert not cmath.isfinite(bargmann_triple_coherent(a, b, a).invariant)
    assert not cmath.isfinite(overlap(*pair_at(1e200)))


def test_label_rejects_non_finite():
    with pytest.raises(ValueError):
        CoherentLabel(z1=complex("inf"), z2=0.0)


def test_label_map_matrix_unitary_group_law():
    rng = np.random.default_rng(31)
    for _ in range(10):
        s, t = rng.uniform(-math.pi, math.pi, 2)
        m = routes_label_matrix(s)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(
            routes_label_matrix(s) @ routes_label_matrix(t), routes_label_matrix(s + t), atol=1e-15
        )
    np.testing.assert_array_equal(routes_label_matrix(0.0), np.eye(2))


def test_label_map_is_the_matrix_product_bit_for_bit():
    # the routes apply M(theta) in coordinates; the reference complex matrix
    # product gives the same labels
    rng = np.random.default_rng(43)
    for _ in range(200):
        v = random_label(rng, scale=50.0)
        theta = float(rng.uniform(-10.0, 10.0))
        w1, w2 = oracles.label_map_matrix(theta) @ np.array([v.z1, v.z2])
        mapped = routes_label_map(theta, v)
        assert (mapped.z1, mapped.z2) == (complex(w1), complex(w2))


def test_label_map_half_turn_swaps_with_quadrature_phase():
    mapped = routes_label_map(math.pi / 2, CoherentLabel(1.0, 0.0))
    assert mapped.z1 == pytest.approx(0.0, abs=1e-15)
    assert mapped.z2 == -1j


def test_label_map_conserves_energy():
    rng = np.random.default_rng(37)
    for _ in range(10):
        v = random_label(rng)
        theta = rng.uniform(0.0, math.pi)
        assert routes_label_map(theta, v).norm_sq == pytest.approx(v.norm_sq, abs=1e-12)


def test_label_map_preserves_overlaps():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a, b = random_label(rng), random_label(rng)
        theta = rng.uniform(0.0, math.pi)
        before = overlap(a, b)
        after = overlap(routes_label_map(theta, a), routes_label_map(theta, b))
        assert abs(before - after) < 1e-14


def test_reference_triangle_phase_is_exactly_one():
    a = CoherentLabel(0.0, 0.0)
    b = CoherentLabel(1.0, 0.0)
    c = CoherentLabel(1j, 0.0)
    res = bargmann_triple_coherent(a, b, c)
    assert res.phase == 1.0
    # the other mode contributes nothing, so moving the triangle there
    # gives the same phase
    res2 = bargmann_triple_coherent(
        CoherentLabel(0.0, 0.0), CoherentLabel(0.0, 1.0), CoherentLabel(0.0, 1j)
    )
    assert res2.phase == 1.0


def test_triple_phase_equals_twice_signed_area():
    rng = np.random.default_rng(43)
    for _ in range(30):
        a, b, c = (random_label(rng) for _ in range(3))
        res = bargmann_triple_coherent(a, b, c)
        area = 0.0
        for mode in (1, 2):
            p1, p2, p3 = (
                (getattr(lab, f"z{mode}").real, getattr(lab, f"z{mode}").imag)
                for lab in (a, b, c)
            )
            area += oracles.shoelace_signed_area(p1, p2, p3)
        assert res.phase == pytest.approx(2.0 * area, abs=1e-12)


def test_triple_phase_matches_invariant_argument():
    rng = np.random.default_rng(47)
    for _ in range(20):
        a, b, c = (random_label(rng, scale=0.5) for _ in range(3))
        res = bargmann_triple_coherent(a, b, c)
        assert res.phase == pytest.approx(cmath.phase(res.invariant), abs=1e-12)


def test_triple_invariant_modulus():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a, b, c = (random_label(rng) for _ in range(3))
        res = bargmann_triple_coherent(a, b, c)
        dist = sum(
            abs(x.z1 - y.z1) ** 2 + abs(x.z2 - y.z2) ** 2
            for x, y in ((a, b), (b, c), (c, a))
        )
        assert abs(res.invariant) == pytest.approx(math.exp(-dist / 2), rel=1e-12)


def test_triple_cyclic_and_reversal_symmetry():
    rng = np.random.default_rng(59)
    for _ in range(10):
        a, b, c = (random_label(rng) for _ in range(3))
        base = bargmann_triple_coherent(a, b, c)
        cyc = bargmann_triple_coherent(b, c, a)
        rev = bargmann_triple_coherent(c, b, a)
        assert base.invariant == pytest.approx(cyc.invariant, abs=1e-15)
        assert base.phase == pytest.approx(cyc.phase, abs=1e-12)
        assert base.invariant == pytest.approx(np.conjugate(rev.invariant), abs=1e-15)
        assert base.phase == pytest.approx(-rev.phase, abs=1e-12)


def test_distant_triple_phase_undefined():
    a = CoherentLabel(0.0, 0.0)
    b = CoherentLabel(6.0, 0.0)
    c = CoherentLabel(0.0, 6.0)
    res = bargmann_triple_coherent(a, b, c)
    assert abs(res.invariant) < 1e-12
    assert res.phase is None


def test_degenerate_triple_phase_vanishes():
    rng = np.random.default_rng(61)
    for _ in range(5):
        a, b = random_label(rng), random_label(rng)
        assert bargmann_triple_coherent(a, a, b).phase == 0.0
        assert bargmann_triple_coherent(a, b, b).phase == 0.0
