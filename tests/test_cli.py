import contextlib
import io as stdio
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bargmann_phase import cli, fock, geomphase, pdistribution
from bargmann_phase import io as io_mod
from bargmann_phase.fock import TruncationDim, TruncationLeakageWarning
from bargmann_phase.geomphase import PhaseScenario, method_reconciliation
from bargmann_phase.pdistribution import (
    PhaseSpacePoint,
    fock_element_function,
    gaussian_smear_function,
    mehta_p_function,
    pair,
)

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phase_vacuum_triangle(capsys):
    code, out, err = run_cli(
        capsys,
        "phase",
        "--occupation", "0,0",
        "--centers", "0,0,0,0;1,0,0,0;0,1,0,0",
        "--n-max", "20",
    )
    assert code == 0
    assert err == ""
    assert out.count("1.00000000000e+00") >= 4
    assert "flag: ok" in out
    for method in ("fock_oracle", "phase_space_pairing", "coherent_closed_form", "printed_closed_form"):
        assert method in out


def test_phase_zero_angles(capsys):
    code, out, _ = run_cli(
        capsys, "phase", "--theta1", "0", "--theta2", "0", "--n-max", "12"
    )
    assert code == 0
    assert "flag: ok" in out
    assert "0.00000000000e+00" in out


def test_phase_json_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "phase",
        "--occupation", "1,0",
        "--theta1", "0.7",
        "--theta2", "0.4",
        "--centers", "0.2,0,0,0.1",
        "--n-max", "18",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bargmann-phase/1"
    assert doc["flag"] == "ok"
    assert doc["n_max"] == 18
    methods = doc["methods"]
    assert set(methods) == {"fock_oracle", "phase_space_pairing", "printed_closed_form"}
    gap = abs(methods["fock_oracle"]["phase"] - methods["phase_space_pairing"]["phase"])
    assert gap < 1e-6


def test_phase_evolved_text_has_deltas(capsys):
    code, out, _ = run_cli(
        capsys, "phase", "--theta1", "0.9", "--theta2", "1.1",
        "--centers", "0.3,0,0,0.2", "--n-max", "20",
    )
    assert code == 0
    assert "delta fock_oracle|phase_space_pairing:" in out
    assert "gated max delta:" in out


def test_phase_undefined_row_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "phase",
        "--occupation", "1,1",
        "--centers", "0,0,0,0;1,0,0,0;0,1,0,0",
        "--n-max", "16",
    )
    assert code == 0
    assert "flag: undefined" in out
    assert "undefined" in out


def test_phase_usage_errors(capsys):
    assert run_cli(capsys, "phase", "--n-max", "3")[0] == 1
    assert run_cli(capsys, "phase", "--centers", "0,0,0")[0] == 1
    assert run_cli(capsys, "phase", "--centers", "0,0,0,0;1,0,0,0")[0] == 1
    assert run_cli(capsys, "phase", "--occupation", "2,0")[0] == 1
    assert run_cli(capsys, "phase", "--tol", "-1")[0] == 1
    assert run_cli(capsys, "phase", "--theta1", "abc")[0] == 1
    # three vertices exclude angles
    assert run_cli(
        capsys, "phase", "--centers", "0,0,0,0;1,0,0,0;0,1,0,0", "--theta1", "0.5"
    )[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "phase", "--format", "yaml")[0] == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("phase", "--tol", "nan"), "--tol"),
        (("phase", "--tol", "inf"), "--tol"),
        (("phase", "--theta1", "inf"), "--theta1"),
        (("phase", "--theta2", "nan"), "--theta2"),
        (("sweep", "--theta1", "0:inf:3", "--theta2", "0.1"), "--theta1"),
        (("sweep", "--theta1", "0.1", "--theta2=-1e308:1e308:2"), "--theta2"),
        (("phase", "--centers", "1e308,0,0,0"), "--centers"),
        (("phase", "--centers", "0,0,0,0;0,nan,0,0;0,1,0,0"), "--centers"),
        (("pfunc", "--centers", "0,0,inf,0"), "--centers"),
    ],
)
def test_non_finite_input_is_usage_error(capsys, argv, flag):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--n-max", "8")
    assert code == 1
    assert out == ""
    assert flag in err


def test_non_finite_invariant_is_usage_error_not_disagree(capsys):
    # centers of 1e100 pass the parser, but the pairing route overflows
    with pytest.warns(TruncationLeakageWarning):
        code, out, err = run_cli(
            capsys, "phase", "--centers", "1e100,0,0,0", "--theta1", "0.3", "--n-max", "8"
        )
    assert code == 1
    assert out == ""
    assert "phase_space_pairing route returned a non-finite invariant" in err


@pytest.mark.parametrize("occupation", ["1,1", "0,0"])
def test_phase_huge_angle_routes_agree(capsys, occupation):
    # the Fock route reduces the angle modulo 2 pi exactly and every route
    # composes the third slot as M(theta1) M(theta2); unreduced, the Fock
    # phases drift by |theta| * 1e-15, and theta1 + theta2 rounds by 0.06 rad
    code, out, _ = run_cli(
        capsys,
        "phase",
        "--occupation", occupation,
        "--centers", "0.3,0.1,0,0.2",
        "--theta1", "1e15",
        "--theta2", "0.4",
        "--n-max", "12",
    )
    assert code == 0
    assert "flag: ok" in out


def test_phase_truncation_leakage_flags_disagreement(capsys):
    with pytest.warns(TruncationLeakageWarning):
        code, out, _ = run_cli(
            capsys,
            "phase",
            "--occupation", "0,0",
            "--centers", "1.4,0,0,0;0,0,0,0;0,1.4,0,0",
            "--n-max", "5",
        )
    assert code == 2
    assert "flag: disagree" in out


def test_sweep_csv_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--theta1", f"0:{math.pi}:3",
        "--theta2", f"0:{math.pi}:3",
        "--centers", "0.2,0,0,0.1",
        "--n-max", "20",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta1,theta2,phase_fock,phase_pairing,phase_printed,abs_delta_max,flag"
    assert len(lines) == 10
    assert all(line.endswith(",ok") for line in lines[1:])
    # half-open grid: pi itself is excluded
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(2 * math.pi / 3, abs=1e-10)


def test_sweep_deterministic_output(capsys):
    argv = [
        "sweep",
        "--theta1", "0:2:2",
        "--theta2", "0:2:2",
        "--centers", "0.1,0.05,0,0.2",
        "--n-max", "18",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_single_angle_values(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--theta1", "0.8", "--theta2", "1.3",
        "--centers", "0.25,0,0,0", "--occupation", "1,0", "--n-max", "20",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) == pytest.approx(0.8)
    assert float(fields[1]) == pytest.approx(1.3)
    assert abs(float(fields[2]) - float(fields[3])) < 1e-6


@pytest.mark.parametrize("n_max", ["12", "25"])
@pytest.mark.parametrize("occupation", [(1, 1), (1, 0), (0, 0)])
def test_sweep_matches_fresh_scenarios(capsys, occupation, n_max):
    # the grid points share one initial state; rows built from scratch,
    # one state per point, must give the same bytes
    grid1 = cli._parse_theta("0.2:2.9:3", "--theta1", allow_grid=True)
    grid2 = cli._parse_theta("-1:1.5:2", "--theta2", allow_grid=True)
    centers = "0.3,-0.2,0.1,0.25"
    vertex = cli._parse_vertex(centers)
    rows = [
        io_mod.sweep_row(method_reconciliation(
            PhaseScenario.evolved(occupation, vertex, t1, t2), dim=TruncationDim(int(n_max))
        ))
        for t1 in grid1
        for t2 in grid2
    ]
    want = stdio.StringIO()
    io_mod.write_sweep_csv(rows, want)
    code, out, _ = run_cli(
        capsys, "sweep", "--theta1", "0.2:2.9:3", "--theta2", "-1:1.5:2", "--centers", centers,
        "--occupation", "%d,%d" % occupation, "--n-max", n_max,
    )
    assert code == 0
    assert out == want.getvalue()


def sweep_output(*argv):
    """cli.main's exit code and standard output, without a fixture (hypothesis reruns)."""
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakageWarning)
        code = cli.main(list(argv))
    return code, out.getvalue()


def fresh_sweep_output(occupation, centers, grid1, grid2, n_max, fmt):
    """The sweep's output built from one fresh scenario per grid point."""
    vertex = cli._parse_vertex(centers)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakageWarning)
        rows = [
            io_mod.sweep_row(method_reconciliation(
                PhaseScenario.evolved(occupation, vertex, t1, t2), dim=TruncationDim(n_max)
            ))
            for t1 in cli._parse_theta(grid1, "--theta1", allow_grid=True)
            for t2 in cli._parse_theta(grid2, "--theta2", allow_grid=True)
        ]
    code = 2 if any(row["flag"] == "disagree" for row in rows) else 0
    if fmt == "json":
        doc = io_mod.sweep_document(rows, n_max, 1e-6)
        return code, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    text = stdio.StringIO()
    io_mod.write_sweep_csv(rows, text)
    return code, text.getvalue()


def grid_text(start, count):
    # a span that moves even at 1e300, where 3.0 is below the float spacing
    return f"{start!r}:{start + max(3.0, abs(start) * 1e-14)!r}:{count}"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    occupation=st.sampled_from([(0, 0), (1, 0), (1, 1)]),
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    n_max=st.sampled_from([5, 8, 12]),
    starts=st.lists(st.sampled_from([0.0, 1e15, -3e12, 1e300]), min_size=2, max_size=2),
    counts=st.lists(st.integers(1, 3), min_size=2, max_size=2),
    fmt=st.sampled_from(["csv", "json"]),
)
@example(occupation=(1, 1), centers=[12.0, 5.0, 0.0, 0.0], n_max=5, starts=[0.0, 0.0],
         counts=[3, 3], fmt="csv")
@example(occupation=(1, 1), centers=[12.0, 5.0, 0.0, 0.0], n_max=5, starts=[0.0, 0.0],
         counts=[3, 3], fmt="json")
def test_sweep_matches_fresh_scenarios_property(occupation, centers, n_max, starts, counts, fmt):
    # the grid's routes run as arrays over blocks; each row must still have the
    # bytes of a scenario built on its own, undefined rows and signed zeros included
    centers = ",".join(repr(c) for c in centers)
    grid1, grid2 = (grid_text(start, count) for start, count in zip(starts, counts))
    got = sweep_output(
        "sweep", f"--theta1={grid1}", f"--theta2={grid2}", f"--centers={centers}",
        "--occupation", "%d,%d" % occupation, "--n-max", str(n_max), "--format", fmt,
    )
    assert got == fresh_sweep_output(occupation, centers, grid1, grid2, n_max, fmt)


def test_sweep_undefined_rows_match_fresh_scenarios_on_the_default_grid():
    # far outside the cutoff most rows are undefined and the Fock phases are
    # signed zeros and roundoff; the full default grid keeps their bytes too
    default = f"0:{math.pi}:21"
    got = sweep_output("sweep", "--centers", "12,5,0,0", "--n-max", "5")
    assert got == fresh_sweep_output((1, 1), "12,5,0,0", default, default, 5, "csv")
    assert got[1].count(",undefined\n") > 400


@pytest.mark.parametrize("occupation", ["0,0", "1,0", "1,1"])
def test_sweep_blocks_do_not_change_the_output(monkeypatch, occupation):
    # one angle and one point a block: every grid point is then evaluated on
    # its own, which must give the bytes of the default blocks
    argv = ("sweep", "--theta1", "0.2:2.9:4", "--theta2=-1:1.5:3", "--centers", "0.3,-0.2,0.1,0.25",
            "--occupation", occupation, "--n-max", "10")
    default = [sweep_output(*argv, "--format", fmt) for fmt in ("csv", "json")]
    monkeypatch.setattr(fock, "BLOCK_BYTES", 1)
    assert [sweep_output(*argv, "--format", fmt) for fmt in ("csv", "json")] == default


class _RecordingNumpy:
    """Stands in for a module's numpy and records the shape and size of every
    array that a numpy function or ufunc returns."""

    def __init__(self, target, seen):
        self._target, self._seen = target, seen

    def __call__(self, *args, **kwargs):
        out = self._target(*args, **kwargs)
        if isinstance(out, np.ndarray):
            self._seen.append((out.shape, out.nbytes))
        return out

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if callable(attr) and not isinstance(attr, type):
            return _RecordingNumpy(attr, self._seen)
        return attr


def test_sweep_block_temporaries_stay_under_the_cap(monkeypatch):
    # the largest accepted cutoff on a 1000-angle axis: one theta1 row of angle
    # factors is 82 kB here, and the whole axis would be 82 MB
    argv = ("sweep", "--n-max", "100", "--theta1", "0:3.1:1000", "--theta2", "0.2",
            "--occupation", "1,1", "--centers", "0.2,0,0,0.1")
    fock._polarizer_sectors(100)  # the cached basis is not a block temporary
    seen = []
    for module in (fock, geomphase, pdistribution):
        monkeypatch.setattr(module, "np", _RecordingNumpy(np, seen))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code, out = sweep_output(*argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1001 and all(line.endswith(",ok") for line in lines[1:])
    # the angle rows (cos, sin) of the 1000 theta1 values came in blocks
    k = len(fock._polarizer_sectors(100)[4])
    angle_rows = [shape[0] for shape, _ in seen if shape[1:] == (2, k)]
    assert angle_rows and max(angle_rows) < 1000
    assert max(nbytes for _, nbytes in seen) <= fock.BLOCK_BYTES
    # the live temporaries and the sweep's output together peak at about 3.7
    # caps; an unchunked matching-sum DP alone takes the peak past 5
    assert peak <= 5 * fock.BLOCK_BYTES


def test_sweep_prepares_its_initial_state_once(capsys, monkeypatch):
    calls = {"columns": 0, "p_objects": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fock, "_displacement_columns", counted("columns", fock._displacement_columns))
    monkeypatch.setattr(
        geomphase, "mehta_p_function", counted("p_objects", geomphase.mehta_p_function)
    )
    code, out, _ = run_cli(
        capsys, "sweep", "--theta1", "0:3:4", "--theta2", "0.5:2:4",
        "--centers", "0.3,-0.2,0.1,0.25", "--n-max", "12",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 17
    # one displacement call for both modes and one P object per sweep
    assert calls == {"columns": 1, "p_objects": 1}


def test_sweep_beyond_the_guard_warns(capsys):
    with pytest.warns(TruncationLeakageWarning):
        code, _, _ = run_cli(
            capsys, "sweep", "--theta1", "0:3:2", "--theta2", "0:3:2",
            "--centers", "0.7,0,0,0", "--n-max", "5",
        )
    assert code in (0, 2)


def test_sweep_failing_mid_grid_writes_nothing(tmp_path, capsys, monkeypatch):
    real = cli.method_reconciliation
    seen = []

    def failing_third(*args, **kwargs):
        seen.append(None)
        if len(seen) == 3:
            raise ValueError("the fock_oracle route returned a non-finite invariant")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "method_reconciliation", failing_third)
    target = tmp_path / "sweep.csv"
    for extra in ((), ("--out", str(target)), ("--format", "json")):
        seen.clear()
        code, out, err = run_cli(
            capsys, "sweep", "--theta1", "0:3:2", "--theta2", "0:3:2", "--n-max", "8", *extra
        )
        assert code == 1
        assert out == ""
        assert "non-finite invariant" in err
    assert not target.exists()


def test_sweep_json_document(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--theta1", "0:1:2",
        "--theta2", "0.5",
        "--n-max", "16",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bargmann-phase/1"
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["flag"] == "ok"


def test_sweep_rejects_three_vertices(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--centers", "0,0,0,0;1,0,0,0;0,1,0,0", "--n-max", "16"
    )
    assert code == 1
    assert "single initial vertex" in err


def test_validate_passes(capsys):
    code, out, _ = run_cli(capsys, "validate", "--n-max", "12")
    assert code == 0
    assert "/19 checks passed" in out
    assert "[FAIL]" not in out


def test_validate_rejects_n_max_above_bound(capsys):
    # validate's dense matrices grow as n_max^4, so its bound is below cli.N_MAX
    code, out, err = run_cli(capsys, "validate", "--n-max", "31")
    assert code == 1
    assert out == ""
    assert "--n-max" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("phase", "--n-max", str(cli.N_MAX + 1)), "--n-max"),
        (("sweep", "--n-max", str(cli.N_MAX + 1), "--theta1", "0.1", "--theta2", "0.2"), "--n-max"),
        (("sweep", "--theta1", f"0:1:{cli.GRID_COUNT_MAX + 1}", "--theta2", "0.2", "--n-max", "5"),
         "--theta1"),
        (("sweep", "--theta1", "0.1", "--theta2", f"0:1:{cli.GRID_COUNT_MAX + 1}", "--n-max", "5"),
         "--theta2"),
        (("sweep", "--theta1", "0:1:0", "--theta2", "0.2"), "--theta1"),
    ],
)
def test_input_size_bounds_are_usage_errors(capsys, argv, flag):
    # each case is just past its bound, so that a missing check costs a
    # second here rather than an unbounded allocation
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert flag in err


def test_grid_count_bound_is_inclusive():
    grid = cli._parse_theta(f"0:1:{cli.GRID_COUNT_MAX}", "--theta1", allow_grid=True)
    assert len(grid) == cli.GRID_COUNT_MAX


def test_validate_json(capsys):
    code, out, _ = run_cli(capsys, "validate", "--n-max", "14", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bargmann-phase/1"
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 19


def test_pfunc_document_shape(capsys):
    code, out, _ = run_cli(capsys, "pfunc", "--occupation", "1,0", "--centers", "0.3,0.1,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "bargmann-phase/1"
    assert doc["occupation"] == [1, 0]
    assert len(doc["terms"]) == 2
    orders = sorted(tuple(t["orders"]) for t in doc["terms"])
    assert orders == [(0, 2, 0, 0), (2, 0, 0, 0)]
    for term in doc["terms"]:
        assert term["center"] == pytest.approx([0.3, 0.1, 0.0, 0.0])


@pytest.mark.parametrize("occupation", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_pfunc_document_round_trip_keeps_the_pairing(occupation):
    # the document's (q, p) terms collect back into the Wirtinger form that
    # mehta_p_function builds, so reading a written document pairs identically
    shift = (PhaseSpacePoint(0.31, -0.17), PhaseSpacePoint(-0.05, 0.42))
    p = mehta_p_function(occupation, shift)
    doc = json.loads(json.dumps(io_mod.pfunc_document(occupation, shift, p)))
    got_occupation, got_shift, got = io_mod.pfunc_from_document(doc)
    assert (got_occupation, got_shift) == (occupation, shift)
    assert got == p
    for f in (fock_element_function((1, 0), (1, 1)), gaussian_smear_function(0.4)):
        assert pair(got, f) == pair(p, f)


def test_pfunc_round_trip_matches_direct(tmp_path, capsys):
    vertices = ["0,0,0,0", "0.4,0,0,0", "0,0.4,0,0"]
    paths = []
    for k, vertex in enumerate(vertices):
        path = tmp_path / f"p{k}.json"
        code, out, _ = run_cli(
            capsys, "pfunc", "--occupation", "1,1", "--centers", vertex, "--out", str(path)
        )
        assert code == 0
        paths.append(str(path))
    code1, from_pfunc, _ = run_cli(
        capsys, "phase", "--from-pfunc", *paths, "--n-max", "18"
    )
    code2, direct, _ = run_cli(
        capsys, "phase", "--occupation", "1,1",
        "--centers", ";".join(vertices), "--n-max", "18",
    )
    assert code1 == code2
    assert from_pfunc == direct


def test_pfunc_occupation_contradiction_is_usage_error(tmp_path, capsys):
    paths = []
    for k, vertex in enumerate(["0,0,0,0", "0.4,0,0,0", "0,0.4,0,0"]):
        path = tmp_path / f"p{k}.json"
        argv = ("pfunc", "--occupation", "1,1", "--centers", vertex, "--out", str(path))
        assert run_cli(capsys, *argv)[0] == 0
        paths.append(str(path))
    code, out, err = run_cli(capsys, "phase", "--occupation", "0,0", "--from-pfunc", *paths)
    assert (code, out) == (1, "")
    assert "--occupation contradicts the pfunc files" in err
    code, out, _ = run_cli(capsys, "phase", "--occupation", "1,1", "--from-pfunc", *paths,
                           "--n-max", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["scenario"]["occupation"] == [1, 1]


def test_pfunc_from_tampered_document_rejected(tmp_path, capsys):
    path = tmp_path / "p.json"
    code, _, _ = run_cli(capsys, "pfunc", "--occupation", "1,0", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    doc["terms"][0]["coeff"] = [0.5, 0.0]
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "phase", "--from-pfunc", str(path), str(path), str(path))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "tamper, field",
    [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "terms"}, "'terms'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "shift"}, "'shift'"),
        (lambda doc: {**doc, "shift": doc["shift"][:3]}, "'shift'"),
        (lambda doc: {**doc, "envelope": False}, "'envelope'"),
        (lambda doc: {**doc, "occupation": [1.9, 0.2]}, "'occupation'"),
    ],
    ids=["not-an-object", "missing-terms", "missing-shift", "short-shift", "envelope-false",
         "fractional-occupation"],
)
def test_pfunc_from_malformed_document_is_usage_error(tmp_path, capsys, tamper, field):
    path = tmp_path / "p.json"
    assert run_cli(capsys, "pfunc", "--occupation", "1,0", "--out", str(path))[0] == 0
    path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
    code, out, err = run_cli(capsys, "phase", "--from-pfunc", str(path), str(path), str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("bargmann-phase: error:")
    assert field in err


@pytest.mark.parametrize(
    "argv",
    [
        ("phase", "--theta1", "0.1", "--theta2", "0.2", "--centers", "-0.3,0.1,0,0.2"),
        ("phase", "--theta2", "0.2", "--theta1", "-1e-3"),
        ("sweep", "--theta2", "0.2", "--theta1", "-1:1:8"),
        ("pfunc", "--centers", "-0.2,0,0,0"),
    ],
    ids=["phase-centers", "phase-theta-exponent", "sweep-grid", "pfunc-centers"],
)
def test_negative_values_are_values_not_options(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--n-max", "10")
    assert code == 0, err
    # the --flag=value form reads the same negative value
    flag, value = argv[-2:]
    assert run_cli(capsys, *argv[:-2], f"{flag}={value}", "--n-max", "10")[1] == out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "phase", "--theta1", "0.3", "--theta2", "0.2",
        "--n-max", "14", "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["flag"] == "ok"


def test_out_flag_bad_path_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "phase", "--theta1", "0", "--theta2", "0",
        "--n-max", "12", "--out", "/nonexistent-dir/x.json",
    )
    assert code == 1
    assert "error" in err


def test_sweep_full_default_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--centers", "0.2,0.1,0.05,0")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 21 * 21
    assert all(line.endswith(",ok") for line in lines[1:])
