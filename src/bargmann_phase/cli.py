"""Command line interface.

Subcommands: phase (one configuration, all methods), sweep (angle grid),
validate (invariant suite), pfunc (emit a P object as JSON).

Exit codes: 0 success and agreement, 1 bad input or usage, 2 numerical
disagreement beyond tolerance.
"""
from __future__ import annotations

import argparse
import io
import itertools
import json
import math
import re
import sys

from . import io as io_mod
from .fock import TruncationDim
from .geomphase import PhaseScenario, StateSpec, evolved_grid_results, method_reconciliation
from .pdistribution import PhaseSpacePoint
from .validation import run_all

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREE = 2
# every command's cutoff: the oracle's chain weights cost O(n_max^2) a state
# and its angle factors n_max cos/sin pairs an angle, and validate's largest
# matrix is one (n_max+1)-square photon-number sector
N_MAX = 100
# a sweep builds count1 * count2 rows
GRID_COUNT_MAX = 1000


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only plain negative numbers as values, so
        # "--theta1 -1e-3" or "--centers -0.3,0.1,0,0" would read as an
        # unknown option; no option here starts with "-<digit>" or "-."
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # numerical disagreement, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_occupation(text: str) -> tuple[int, int]:
    try:
        occ = tuple(int(p) for p in text.split(","))
    except ValueError:
        occ = ()
    if len(occ) != 2 or any(n not in (0, 1) for n in occ):
        raise ValueError(f"--occupation is 'n1,n2' with each 0 or 1, got {text!r}")
    return occ


def _parse_vertex(text: str):
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 4:
        raise ValueError(f"--centers takes a vertex as 'q1,p1,q2,p2' numbers, got {text!r}")
    # |z|^2 enters every overlap exponent; past the float range the routes
    # overflow instead of answering
    if not all(math.isfinite(q * q + p * p) for q, p in (parts[:2], parts[2:])):
        raise ValueError(f"--centers needs finite q, p with finite q^2 + p^2, got {text!r}")
    return (PhaseSpacePoint(parts[0], parts[1]), PhaseSpacePoint(parts[2], parts[3]))


def _parse_centers(text: str):
    groups = [g for g in text.split(";") if g.strip()]
    if len(groups) not in (1, 3):
        raise ValueError("--centers takes one vertex (with angles) or three ';'-separated vertices")
    return [_parse_vertex(g) for g in groups]


def _parse_theta(text: str, flag: str, allow_grid: bool):
    """A plain angle, or 'start:stop:count' for a half-open sweep grid."""
    if ":" in text:
        if not allow_grid:
            raise ValueError(f"{flag} takes a single angle, got grid {text!r}")
        try:
            start, stop, count = text.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError:
            raise ValueError(f"{flag} grid is 'start:stop:count' with a whole count, got {text!r}") from None
        if not 1 <= count <= GRID_COUNT_MAX:
            raise ValueError(f"{flag} grid count must be in [1, {GRID_COUNT_MAX}], got {count}")
        step = (stop - start) / count
        values = [start + i * step for i in range(count)]
        checked = (start, stop, step)
    else:
        try:
            values = checked = [float(text)]
        except ValueError:
            raise ValueError(f"{flag} must be an angle in radians, got {text!r}") from None
    if not all(math.isfinite(x) for x in checked):
        raise ValueError(f"{flag} must be finite, got {text!r}")
    return values


def _add_common(parser, *flags, default_n_max=25):
    """Add the shared options named in flags: a subcommand takes only those it reads."""
    options = {
        "--n-max": dict(type=int, default=default_n_max,
                        help="Fock cutoff: the oracle keeps total photon number "
                             f"n1 + n2 <= n_max, in [5, {N_MAX}] (default {default_n_max})"),
        "--tol": dict(type=float, default=1e-6,
                      help="phase agreement tolerance in radians (default 1e-6)"),
        "--out": dict(default=None, help="write output to this path instead of stdout"),
    }
    for flag in flags:
        parser.add_argument(flag, **options[flag])


def _checked_dim(args) -> TruncationDim:
    """The cutoff of --n-max, after checking it and, where the command reads it, --tol."""
    if not 5 <= args.n_max <= N_MAX:
        raise ValueError(f"--n-max must be in [5, {N_MAX}], got {args.n_max}")
    if "tol" in args and not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")
    return TruncationDim(args.n_max)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# phase


def _scenario_from_args(args) -> PhaseScenario:
    occupation = _parse_occupation("1,1" if args.occupation is None else args.occupation)
    vertices = _parse_centers("0,0,0,0" if args.centers is None else args.centers)
    if len(vertices) == 3:
        if args.theta1 is not None or args.theta2 is not None:
            raise ValueError("angles and three explicit vertices are mutually exclusive")
        return PhaseScenario.independent(occupation, *vertices)
    theta1 = _parse_theta("0" if args.theta1 is None else args.theta1, "--theta1", allow_grid=False)[0]
    theta2 = _parse_theta("0" if args.theta2 is None else args.theta2, "--theta2", allow_grid=False)[0]
    return PhaseScenario.evolved(occupation, vertices[0], theta1, theta2)


def _scenario_from_pfunc_files(paths, occupation_flag) -> PhaseScenario:
    loaded = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded.append(io_mod.pfunc_from_document(json.load(fh)))
            except ValueError as exc:
                raise ValueError(f"--from-pfunc file {path!r}: {exc}") from None
    occupations = {occ for occ, _ in loaded}
    if len(occupations) != 1:
        raise ValueError("the three pfunc files carry different occupations")
    occupation = loaded[0][0]
    if occupation_flag is not None and _parse_occupation(occupation_flag) != occupation:
        raise ValueError("--occupation contradicts the pfunc files")
    vertices = [shift for _, shift in loaded]
    return PhaseScenario.independent(occupation, *vertices)


def _phase_text(row, args) -> str:
    lines = []
    scenario = io_mod.scenario_to_dict(row.scenario)
    lines.append(f"scenario: {json.dumps(scenario, sort_keys=True)}")
    lines.append(f"n_max: {args.n_max}   tolerance: {args.tol:g}")
    lines.append(f"{'method':<24}{'phase':>20}{'|invariant|':>20}")
    for name in ("fock_oracle", "phase_space_pairing", "coherent_closed_form", "printed_closed_form"):
        res = row.results.get(name)
        if res is None:
            continue
        phase = "undefined" if res.phase is None else io_mod.format_float(res.phase)
        lines.append(f"{name:<24}{phase:>20}{io_mod.format_float(abs(res.invariant)):>20}")
    for pair_name, delta in sorted(row.deltas.items()):
        lines.append(f"delta {pair_name}: {io_mod.format_float(delta)}")
    gate = "undefined" if row.abs_delta_max is None else io_mod.format_float(row.abs_delta_max)
    lines.append(f"gated max delta: {gate}")
    lines.append(f"flag: {row.flag}")
    return "\n".join(lines) + "\n"


def cmd_phase(args) -> int:
    dim = _checked_dim(args)
    if args.from_pfunc:
        if args.centers is not None or args.theta1 is not None or args.theta2 is not None:
            raise ValueError("--from-pfunc replaces --centers and angles")
        scenario = _scenario_from_pfunc_files(args.from_pfunc, args.occupation)
    else:
        scenario = _scenario_from_args(args)
    row = method_reconciliation(scenario, dim=dim, tolerance=args.tol)
    if args.format == "json":
        doc = io_mod.phase_document(row, args.n_max, args.tol)
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(_phase_text(row, args), args.out)
    return EXIT_DISAGREE if row.flag == "disagree" else EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    dim = _checked_dim(args)
    occupation = _parse_occupation(args.occupation)
    vertices = _parse_centers(args.centers)
    if len(vertices) != 1:
        raise ValueError("--centers takes a single initial vertex in a sweep")
    grid1 = _parse_theta(args.theta1, "--theta1", allow_grid=True)
    grid2 = _parse_theta(args.theta2, "--theta2", allow_grid=True)
    state = StateSpec(occupation, *vertices[0])
    flags = set()

    def sweep_rows():
        # the routes run as arrays over blocks of the grid, from the one initial
        # state; each point is then reconciled on its own, formatted, and only
        # its formatted output is kept
        routes = evolved_grid_results(state, grid1, grid2, dim)
        for (t1, t2), results in zip(itertools.product(grid1, grid2), routes):
            scenario = PhaseScenario(occupation, vertices[0], t1, t2)
            row = io_mod.sweep_row(method_reconciliation(
                scenario, dim=dim, tolerance=args.tol, results=results
            ))
            flags.add(row["flag"])
            yield row

    # the whole grid is formatted before anything is written, so a failing
    # row leaves no partial output
    if args.format == "json":
        doc = io_mod.sweep_document(sweep_rows(), args.n_max, args.tol)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        io_mod.write_sweep_csv(sweep_rows(), buf)
        text = buf.getvalue()
    _emit(text, args.out)
    return EXIT_DISAGREE if "disagree" in flags else EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    _checked_dim(args)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    checks = run_all(n_max=args.n_max, seed=args.seed)
    ok = all(c.passed for c in checks)
    if args.format == "json":
        doc = io_mod.validation_document(checks, args.n_max, args.seed)
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: value={c.value:.3e} threshold={c.threshold:.3e}")
            lines.append(f"       {c.detail}")
        lines.append(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# pfunc


def cmd_pfunc(args) -> int:
    occupation = _parse_occupation(args.occupation)
    vertices = _parse_centers(args.centers)
    if len(vertices) != 1:
        raise ValueError("--centers takes a single vertex as the pfunc shift")
    doc = io_mod.pfunc_document(occupation, vertices[0])
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="bargmann-phase",
        description="Geometric phase of two-mode beams from the Bargmann invariant",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phase = sub.add_parser("phase", help="compute one configuration with every method")
    _add_common(p_phase, "--n-max", "--tol", "--out")
    p_phase.add_argument("--occupation", default=None,
                         help="per-mode photon numbers 'n1,n2' (default 1,1); with "
                              "--from-pfunc it must match the files")
    p_phase.add_argument(
        "--centers",
        default=None,
        help="'q1,p1,q2,p2' for a polarizer chain, or three ';'-separated vertices "
             "(default 0,0,0,0)",
    )
    p_phase.add_argument("--theta1", default=None, help="first polarizer angle (radians)")
    p_phase.add_argument("--theta2", default=None, help="second polarizer angle (radians)")
    p_phase.add_argument("--from-pfunc", nargs=3, metavar="JSON", default=None,
                         help="three pfunc documents standing in for the vertices")
    p_phase.add_argument("--format", choices=("text", "json"), default="text")
    p_phase.set_defaults(func=cmd_phase)

    p_sweep = sub.add_parser("sweep", help="reconcile methods over an angle grid")
    _add_common(p_sweep, "--n-max", "--tol", "--out")
    p_sweep.add_argument("--occupation", default="1,1")
    p_sweep.add_argument("--centers", default="0,0,0,0", help="initial vertex 'q1,p1,q2,p2'")
    p_sweep.add_argument("--theta1", default=f"0:{math.pi}:21",
                         help="angle or 'start:stop:count' grid, half open (default 21 over [0, pi))")
    p_sweep.add_argument("--theta2", default=f"0:{math.pi}:21")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the named invariant checks")
    _add_common(p_val, "--n-max", "--out", default_n_max=18)
    p_val.add_argument("--seed", type=int, default=7, help="seed for seeded checks (default 7)")
    p_val.add_argument("--format", choices=("text", "json"), default="text")
    p_val.set_defaults(func=cmd_validate)

    p_pfunc = sub.add_parser("pfunc", help="emit the delta-derivative P object as JSON")
    _add_common(p_pfunc, "--out")
    p_pfunc.add_argument("--occupation", default="1,1")
    p_pfunc.add_argument("--centers", default="0,0,0,0", help="phase-space shift 'q1,p1,q2,p2'")
    p_pfunc.set_defaults(func=cmd_pfunc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles usage errors and --help by exiting; fold that
        # into the return-code contract so in-process calls never raise
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"bargmann-phase: error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"bargmann-phase: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main(argv=None))
