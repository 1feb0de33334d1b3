import ast
import cmath
import contextlib
import csv
import importlib.util
import io as stdio
import json
import math
import pkgutil
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bargmann_phase
from bargmann_phase import cli, fock, geomphase, pdistribution, validation
from bargmann_phase import io as io_mod
from bargmann_phase.fock import TruncationDim, TruncationLeakageWarning
from bargmann_phase.geomphase import PhaseScenario, method_reconciliation
from bargmann_phase.pdistribution import PhaseSpacePoint, mehta_p_function
from oracles import fock_element_function, gaussian_smear_function, pair

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
    # the row's truncation bound, 4.24e-12, is above its rounding floor
    with pytest.warns(TruncationLeakageWarning):
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
        # an empty angle is no angle, not 0
        (("phase", "--theta1", "", "--theta2", ""), "--theta1"),
        (("phase", "--theta1", "0.3", "--theta2", ""), "--theta2"),
        # malformed values name their option, not the conversion that failed
        (("validate", "--seed", "-1"), "--seed"),
        (("sweep", "--theta1", "a:1:3", "--theta2", "0.1"), "--theta1"),
        (("sweep", "--theta1", "0:1:x", "--theta2", "0.1"), "--theta1"),
        (("sweep", "--theta1", "0.1", "--theta2", "0:1"), "--theta2"),
        (("phase", "--occupation", "a,b"), "--occupation"),
        (("phase", "--occupation", "2,0"), "--occupation"),
        (("sweep", "--occupation", "1"), "--occupation"),
        (("pfunc", "--occupation", "0,x"), "--occupation"),
        (("phase", "--centers", "a,0,0,0"), "--centers"),
        (("phase", "--centers", "0,0,0"), "--centers"),
        (("sweep", "--centers", "0,0,0,b"), "--centers"),
        (("pfunc", "--centers", "0,0,0,0,0"), "--centers"),
        (("sweep", "--centers", "0,0,0,0;1,0,0,0;0,1,0,0"), "--centers"),
        (("pfunc", "--centers", "0,0,0,0;1,0,0,0;0,1,0,0"), "--centers"),
    ],
)
def test_non_finite_input_is_usage_error(capsys, argv, flag):
    n_max = () if argv[0] == "pfunc" else ("--n-max", "8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, *n_max)
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


@pytest.mark.parametrize("occupation", ["0,0", "1,0", "0,1", "1,1"])
@pytest.mark.parametrize(
    "centers, angles",
    [
        # rounding leaves the chain's summed exponent far above exp's range
        ("1e100,3e99,7e99,1e99", ("--theta1", "1e-9", "--theta2", "1e-9")),
        # each edge's own exponent is far above it; their sum is far below
        ("1e100,3e99,7e99,1e99;1.1e100,2e99,7e99,1e99;1e100,3e99,7.1e99,1.2e99", ()),
        # labels one ulp apart: rounding leaves a coherent overlap's exponent
        # far above exp's range
        ("1e100,0,0,0;1.0000000000000002e100,0,0,0;1.0000000000000004e100,0,0,0", ()),
        # each mode's |z|^2 is finite, but the rotated labels' squared norms overflow
        ("1.2e154,0,0,1.2e154", ("--theta1", "0.785398", "--theta2", "0.1")),
    ],
    ids=["chain", "triangle", "ulp-triangle", "wide-chain"],
)
def test_huge_accepted_inputs_never_end_in_a_traceback(capsys, centers, angles, occupation):
    argv = ("phase", "--occupation", occupation, "--centers", centers, *angles, "--n-max", "25")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakageWarning)
        code, out, err = run_cli(capsys, *argv)
        scenario = cli._scenario_from_args(cli.build_parser().parse_args(argv))
        pairing = scenario.pairing_invariant().invariant
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
        assert re.fullmatch(r"bargmann-phase: error: the \w+ route returned a non-finite invariant\n", err)
    if not cmath.isfinite(pairing):
        assert code == 1
        assert "the phase_space_pairing route returned a non-finite invariant" in err


def test_huge_coherent_chain_fails_without_numpy_warnings(capsys):
    # the coherent closed form runs in Python complex numbers, which overflow
    # to inf silently; the row still fails at the boundary with exit 1
    argv = ("phase", "--occupation", "0,0", "--centers", "1.2e154,0,0,1.2e154",
            "--theta1", "0.785398", "--theta2", "0.1", "--n-max", "25")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == 1
    assert out == ""
    assert err == "bargmann-phase: error: the coherent_closed_form route returned a non-finite invariant\n"


# |invariant| is 1.4e-4; the Fock bound over it is 15.4 at n_max 25, 1.1e-6 at
# 40 and 1.1e-9 at 45
LEAKY_CHAIN = ("phase", "--occupation", "1,0", "--centers", "2.5,1,-1.5,1",
               "--theta1", "0.7", "--theta2", "0.4")


@pytest.mark.parametrize(
    "argv, fires",
    [
        ((*LEAKY_CHAIN, "--n-max", "25"), True),
        ((*LEAKY_CHAIN, "--n-max", "40"), True),
        ((*LEAKY_CHAIN, "--n-max", "45"), False),
        # truncation wipes the invariant out: bound 3 on an invariant of 0
        (("phase", "--centers", "1e100,0,0,0", "--theta1", "0.3", "--n-max", "8"), True),
        (("sweep", "--centers", "0.7,0,0,0", "--n-max", "5"), True),
        (("sweep",), False),
        (("phase", "--n-max", "100", "--occupation", "1,0", "--centers", "3,0.5,-1,1",
          "--theta1", "0.7", "--theta2", "0.4"), False),
    ],
    ids=["chain-25", "chain-40", "chain-45", "wiped-out", "sweep-5", "default-sweep", "chain-100"],
)
def test_truncation_warning_fires_once_per_command_above_the_bound(capsys, argv, fires):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_cli(capsys, *argv)
    leaks = [w for w in caught if issubclass(w.category, TruncationLeakageWarning)]
    assert len(leaks) == fires


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
    # the largest accepted cutoff on a 1000-angle axis: one theta1 row of
    # weighted angle factors is 3.2 kB here, and the whole axis would be 3.2 MB
    argv = ("sweep", "--n-max", "100", "--theta1", "0:3.1:1000", "--theta2", "0.2",
            "--occupation", "1,1", "--centers", "0.2,0,0,0.1")
    seen = []
    for module in (fock, geomphase):
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
    angle_rows = [shape[0] for shape, _ in seen if shape[1:] == (2, 100)]
    assert angle_rows and max(angle_rows) < 1000
    assert max(nbytes for _, nbytes in seen) <= fock.BLOCK_BYTES
    # the live temporaries and the sweep's output together peak at about 3.7
    # caps; an unchunked matching-sum DP alone takes the peak past 5
    assert peak <= 5 * fock.BLOCK_BYTES


def test_sweep_prepares_its_initial_state_once(capsys, monkeypatch):
    calls = {"amplitudes": 0, "p_objects": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    # both amplitude builders: the complex one of triangles and the real levels of chains
    for builder in ("_number_amplitudes", "_real_levels"):
        monkeypatch.setattr(fock, builder, counted("amplitudes", getattr(fock, builder)))
    # every package module that holds the P builder, wherever it was imported
    real_p = pdistribution.mehta_p_function
    for module in [m for name, m in list(sys.modules.items()) if name.startswith("bargmann_phase")]:
        if getattr(module, "mehta_p_function", None) is real_p:
            monkeypatch.setattr(module, "mehta_p_function", counted("p_objects", real_p))
    code, out, _ = run_cli(
        capsys, "sweep", "--theta1", "0:3:4", "--theta2", "0.5:2:4",
        "--centers", "0.3,-0.2,0.1,0.25", "--n-max", "12",
    )
    assert code == 0
    assert len(out.strip().split("\n")) == 17
    # one amplitude call for the initial state; the pairing reads the state's
    # occupation and centers and builds no P object
    assert calls == {"amplitudes": 1, "p_objects": 0}
    # nor does a phase run, on a chain or on a triangle
    chain = ("--centers", "0.3,-0.2,0.1,0.25", "--theta1", "0.5")
    triangle = ("--centers", "0.3,-0.2,0.1,0.25;0.1,0,0,0.2;0,0.1,-0.2,0")
    for argv in (chain, triangle):
        assert run_cli(capsys, "phase", *argv, "--n-max", "12")[0] == 0
    assert calls["p_objects"] == 0


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


def csv_writer_reference(rows):
    """The sweep CSV as csv.writer writes it, with format_float for every number."""
    out = stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(io_mod.SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([io_mod.format_float(row[name]) for name in io_mod.SWEEP_COLUMNS[:6]]
                        + [row["flag"]])
    return out.getvalue()


@pytest.mark.filterwarnings("ignore::bargmann_phase.fock.TruncationLeakageWarning")
@pytest.mark.parametrize("centers", ["0.2,0,0,0.1", "12,5,0,0"])
def test_sweep_csv_matches_csv_writer_reference(centers):
    # the default grid's rows as cmd_sweep reconciles them; far outside the
    # cutoff most rows are undefined and their phases nan
    grid = cli._parse_theta(f"0:{math.pi}:21", "--theta1", allow_grid=True)
    vertex = cli._parse_vertex(centers)
    state = geomphase.StateSpec((1, 1), *vertex)
    dim = TruncationDim(5)
    rows = [
        io_mod.sweep_row(method_reconciliation(
            PhaseScenario((1, 1), vertex, t1, t2), dim=dim, results=results))
        for (t1, t2), results in zip(
            ((t1, t2) for t1 in grid for t2 in grid),
            geomphase.evolved_grid_results(state, grid, grid, dim))
    ]
    rows.append({"theta1": -0.0, "theta2": 1e300, "phase_fock": -math.pi, "phase_pairing": 5e-324,
                 "phase_printed": None, "abs_delta_max": math.inf, "flag": "disagree"})
    got = stdio.StringIO()
    io_mod.write_sweep_csv(rows, got)
    assert got.getvalue() == csv_writer_reference(rows)
    assert len(got.getvalue().splitlines()) == 443
    if centers == "12,5,0,0":
        assert got.getvalue().count(",nan,") > 400


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
    assert "/14 checks passed" in out
    assert "[FAIL]" not in out


def test_validate_passes_at_the_cutoff_bound_in_bounded_memory(capsys):
    # every check works on one photon-number sector or one mode at a time, so
    # the largest matrix is (n_max+1)-square: 160 kB at the bound, where a
    # single dense (n_max+1)^2-square matrix would take 1.7 GB
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "validate", "--n-max", str(cli.N_MAX))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert "/14 checks passed" in out
    assert "[FAIL]" not in out
    assert peak < 8 << 20


def test_validate_n_max_5_keeps_the_exact_checks():
    # on n1 + n2 <= n_max the polarizer acts exactly, the kept weight is the
    # same sum in either pair of modes, and the pairing has no cutoff at all,
    # so these hold at the smallest accepted cutoff
    checks = {c.name: c for c in validation.run_all(n_max=5)}
    for name in ("polarizer_unitarity", "polarizer_sector_spectrum", "ladder_commutators",
                 "state_purity_and_trace", "evolution_matches_label_map",
                 "pairing_two_state_triangle"):
        assert checks[name].passed, name


def test_validate_passes_at_the_smallest_cutoff(capsys):
    # fock_vs_phase_space_routes reads the Fock route's proven bound, so the
    # truncation at n_max 5 is measured rather than failed on
    code, out, _ = run_cli(capsys, "validate", "--n-max", "5")
    assert code == 0
    assert "14/14 checks passed" in out


@pytest.mark.parametrize("n_max", [5, 12])
def test_validate_routes_check_catches_a_perturbed_pairing(monkeypatch, n_max):
    # a relative error of 1e-6 in the pairing is a gap the truncation bound does
    # not explain, even at the smallest cutoff, where the bound is largest
    real_value = geomphase._cycle_value
    monkeypatch.setattr(geomphase, "_cycle_value", lambda *a: real_value(*a) * (1 + 1e-6))
    checks = {c.name: c for c in validation.run_all(n_max=n_max)}
    assert not checks["fock_vs_phase_space_routes"].passed


@pytest.mark.parametrize("scale_by_position", [False, True], ids=["uniform", "by-position"])
def test_validate_pairing_checks_catch_a_perturbed_pairing(monkeypatch, scale_by_position):
    # a relative error of 1e-9 in the pairing, far below fock_vs_phase_space_routes'
    # 1e-8: a uniform one breaks the two checks with an exact reference, and one
    # that grows with the first slot's q1 breaks translation invariance as well
    real_edge = geomphase._edge

    def perturbed(d, e, t, u):
        x, *rest = real_edge(d, e, t, u)
        # t is the slot (coordinates, occupation); its first coordinate is q1
        return (x + 1e-9 * (t[0][0] if scale_by_position else 1 / 3), *rest)

    monkeypatch.setattr(geomphase, "_edge", perturbed)
    failed = {c.name for c in validation.run_all(n_max=12) if not c.passed}
    pairing = {"pairing_pure_state_trace", "pairing_two_state_triangle"}
    if scale_by_position:
        pairing.add("pairing_translation_invariance")
    assert pairing <= failed


@pytest.mark.parametrize(
    "perturb, caught",
    [
        ("chain_weights", {"state_purity_and_trace"}),
        ("label_map_angle_sign", {"evolution_matches_label_map"}),
        ("sector_eigenvalues", {"polarizer_sector_spectrum"}),
        ("sector_eigenvectors", {"polarizer_unitarity", "evolution_matches_label_map"}),
        ("ladder", {"ladder_commutators"}),
        ("label_map_composition", {"label_map_group_law"}),
    ],
)
def test_validate_sector_checks_catch_a_perturbed_route(monkeypatch, perturb, caught):
    # a relative error of 1e-9 in the kept weights, the sector spectra or bases or
    # the ladder, or the routes' label map run backwards or composed as
    # M(theta1 - theta2), fails the checks that read it
    if perturb == "chain_weights":
        real_weights = fock.chain_weights
        monkeypatch.setattr(fock, "chain_weights", lambda *a: real_weights(*a) * (1 + 1e-9))
    elif perturb == "label_map_angle_sign":
        real_map = geomphase._label_map
        monkeypatch.setattr(geomphase, "_label_map", lambda v, c, s: real_map(v, c, -s))
    elif perturb == "label_map_composition":
        monkeypatch.setattr(geomphase, "_composed", lambda c1, s1, c2, s2: (
            c1, s1, c2, s2, c1 * c2 + s1 * s2, s1 * c2 - c1 * s2))
    elif perturb.startswith("sector_"):
        real_eigh = np.linalg.eigh
        vals_by, vecs_by = (1 + 1e-9, 1.0) if perturb == "sector_eigenvalues" else (1.0, 1 + 1e-9)

        def skewed_eigh(t):
            vals, vecs = real_eigh(t)
            return vals * vals_by, vecs * vecs_by

        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    else:
        real_table = fock._ladder_table

        def stretched_table(n_max, top):
            m, half_log_fact, sqrt_m = real_table(n_max, top)
            return m, half_log_fact, sqrt_m * (1 + 1e-9)

        monkeypatch.setattr(fock, "_ladder_table", stretched_table)
    failed = {c.name for c in validation.run_all(n_max=12) if not c.passed}
    assert caught <= failed


def test_validate_fails_on_the_routes_label_map_run_backwards(capsys, monkeypatch):
    # M(-theta) in the map that the printed and coherent routes run
    real_map = geomphase._label_map
    monkeypatch.setattr(geomphase, "_label_map", lambda v, c, s: real_map(v, c, -s))
    code, out, _ = run_cli(capsys, "validate", "--n-max", "18")
    assert code == 2
    assert "[FAIL] evolution_matches_label_map" in out


def test_validate_rejects_n_max_above_bound(capsys):
    # every command shares the cutoff bound cli.N_MAX
    code, out, err = run_cli(capsys, "validate", "--n-max", str(cli.N_MAX + 1))
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
    assert len(doc["checks"]) == 14


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
    doc = json.loads(json.dumps(io_mod.pfunc_document(occupation, shift)))
    assert io_mod.pfunc_from_document(doc) == (occupation, shift)
    got = mehta_p_function(*io_mod.pfunc_from_document(doc))
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


@pytest.mark.parametrize("centers", ["0,0,0,0", "0.0,0,0,0"])
def test_pfunc_with_centers_is_usage_error(tmp_path, capsys, centers):
    # --from-pfunc replaces --centers, also when the value given is the origin
    path = tmp_path / "p.json"
    assert run_cli(capsys, "pfunc", "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "phase", "--from-pfunc", str(path), str(path), str(path),
                             "--centers", centers)
    assert (code, out) == (1, "")
    assert "--from-pfunc replaces --centers and angles" in err


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


def test_pfunc_errors_name_the_file(tmp_path, capsys):
    # of the three files, the one at fault is named: one that is no JSON, and
    # one with a malformed field
    good = tmp_path / "good.json"
    assert run_cli(capsys, "pfunc", "--occupation", "1,0", "--out", str(good))[0] == 0
    not_json = tmp_path / "not-json.json"
    not_json.write_text("not json")
    bad_terms = tmp_path / "bad-terms.json"
    bad_terms.write_text(json.dumps({**json.loads(good.read_text()), "terms": 3}))
    for bad, field in ((not_json, "Expecting value"), (bad_terms, "'terms'")):
        code, out, err = run_cli(capsys, "phase", "--from-pfunc", str(good), str(bad), str(good))
        assert (code, out) == (1, "")
        assert str(bad) in err and field in err
        assert str(good) not in err


def with_first_term(doc, **fields):
    return {**doc, "terms": [{**doc["terms"][0], **fields}, *doc["terms"][1:]]}


@pytest.mark.parametrize(
    "tamper, field",
    [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "terms"}, "'terms'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "shift"}, "'shift'"),
        (lambda doc: {**doc, "shift": doc["shift"][:3]}, "'shift'"),
        (lambda doc: {**doc, "envelope": False}, "'envelope'"),
        (lambda doc: {**doc, "occupation": [1.9, 0.2]}, "'occupation'"),
        (lambda doc: {**doc, "occupation": [True, False]}, "'occupation'"),
        (lambda doc: {**doc, "shift": [False, 0, 0, 0]}, "'shift'"),
        (lambda doc: with_first_term(doc, coeff=[0.25, False]), "'coeff'"),
        (lambda doc: with_first_term(doc, center=[False, 0, 0, 0]), "'center'"),
        (lambda doc: with_first_term(doc, orders=[2, 0, 0, False]), "'orders'"),
        (lambda doc: {**doc, "shift": [math.nan, 0, 0, 0]}, "'shift'"),
        (lambda doc: {**doc, "shift": [0, 0, math.inf, 0]}, "'shift'"),
        (lambda doc: with_first_term(doc, center=[0, math.nan, 0, 0]), "'center'"),
        (lambda doc: with_first_term(doc, center=[0, 0, 0, -math.inf]), "'center'"),
        (lambda doc: with_first_term(doc, coeff=[math.nan, 0.0]), "'coeff'"),
        (lambda doc: with_first_term(doc, coeff=[0.25, math.inf]), "'coeff'"),
        (lambda doc: {**doc, "occupation": [math.inf, 0]}, "'occupation'"),
        (lambda doc: with_first_term(doc, orders=[2, 0, 0, math.inf]), "'orders'"),
        (lambda doc: {**doc, "shift": [10**400, 0, 0, 0]}, "'shift'"),
    ],
    ids=["not-an-object", "missing-terms", "missing-shift", "short-shift", "envelope-false",
         "fractional-occupation", "boolean-occupation", "boolean-shift", "boolean-coeff",
         "boolean-center", "boolean-orders", "nan-shift", "infinite-shift", "nan-center",
         "infinite-center", "nan-coeff", "infinite-coeff", "infinite-occupation",
         "infinite-orders", "huge-integer-shift"],
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
    n_max = () if argv[0] == "pfunc" else ("--n-max", "10")
    code, out, err = run_cli(capsys, *argv, *n_max)
    assert code == 0, err
    # the --flag=value form reads the same negative value
    flag, value = argv[-2:]
    assert run_cli(capsys, *argv[:-2], f"{flag}={value}", *n_max)[1] == out


@pytest.mark.parametrize(
    "argv",
    [
        ("phase", "--seed", "3"),
        ("sweep", "--seed", "3"),
        ("validate", "--tol", "1e-6"),
        ("pfunc", "--n-max", "25"),
        ("pfunc", "--tol", "1e-6"),
        ("pfunc", "--seed", "3"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {argv[1]}" in err


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


ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_targets_resolve_on_the_package():
    # the benchmark's traced run fails on a target it cannot find; reading the
    # targets here fails the same deletion in seconds
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, home, path, _ in tracer.TARGETS:
        owner = getattr(bargmann_phase, home)
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        assert callable(owner), f"{name}: {home}.{path} is absent"


def test_exports_resolve():
    # a deletion that leaves a stale export behind fails here in seconds
    for info in pkgutil.iter_modules(bargmann_phase.__path__):
        module = importlib.import_module(f"bargmann_phase.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ names the absent {name}"
    init = Path(bargmann_phase.__file__).read_text(encoding="utf-8")
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom):
            exported = importlib.import_module(f"bargmann_phase.{node.module}").__all__
            for alias in node.names:
                assert alias.name in exported, f"{node.module}.__all__ lacks {alias.name}"


def test_readme_python_blocks_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith(" ok")
