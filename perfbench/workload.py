"""One pass of one benchmark workload, run in a fresh Python process.

    python3 perfbench/workload.py --workload NAME --seed N --pass-index K
        [--max-rows R] [--deadline S] [--trace 0|1] [--out-dir DIR]

A pass makes its inputs from (seed, pass index) with the package's own
seeded generators, times its rows, and only then checks every result
against a route independent of the one timed. The result is one JSON
object on the last line of standard output.

--max-rows 0 stops once the inputs exist: the parent process uses such a
run to sample set-up time. --deadline S stops starting new rows once S
seconds of timed work have passed. --trace 1 wraps the package's public
functions with spans (see tracer.py) while the rows run.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import bargmann_phase  # noqa: E402
import oracles  # noqa: E402
from bargmann_phase import cli, geomphase  # noqa: E402
from bargmann_phase.fock import TruncationDim, principal_phase  # noqa: E402
from bargmann_phase.geomphase import circular_delta  # noqa: E402
from tracer import Tracer  # noqa: E402

N_MAX = 25
PHASE_TOL = 1e-6
# Cutoff for checking polarizer chains with the Fock oracle. Centers are at
# most 0.35 per axis; at this cutoff the truncated routes agree with the
# exact pairing to about 1e-10 rad, far inside PHASE_TOL.
CHECK_N_MAX = 12
SWEEP_VERTEX = "0.2,0,0,0.1"
SWEEP_POINTS = 8  # per angle axis
# The columns the README documents for `sweep` CSV output.
SWEEP_HEADER = ["theta1", "theta2", "phase_fock", "phase_pairing", "phase_printed",
                "abs_delta_max", "flag"]


def phase_error(phase, reference) -> float:
    if phase is None or reference is None:
        return math.inf
    return circular_delta(phase, reference)


def corrupted_phase(phase: float) -> float:
    """A wrong phase: the sign flipped, or shifted where a flip changes nothing."""
    if 1e-3 < abs(phase) < math.pi - 1e-3:
        return -phase
    return principal_phase(phase + 0.5)


def oracle_phase(scenario) -> float:
    """Exact phase of an independent triangle from the closed-form overlaps."""
    vertices = (scenario.vertex_a, scenario.vertex_b, scenario.vertex_c)
    centers = [(v[0].to_complex(), v[1].to_complex()) for v in vertices]
    return cmath.phase(oracles.triple_invariant_independent([scenario.occupation] * 3, centers))


def interleave(a: list, b: list) -> list:
    return [x for pair in zip(a, b) for x in pair]


class ScenarioRows:
    """A workload whose rows are single scenarios, timed one call each."""

    span = "bench.row"
    row_seconds = None

    def rows_of(self, unit) -> int:
        return 1


class AcceptancePopulation(ScenarioRows):
    """The acceptance fixture's shape: 100 chains and 100 triangles per pass.

    Pass 0 of seed 1 draws exactly the fixture's scenarios (seeds 1 and 2).
    Chains and triangles alternate so that any prefix has the same mix.
    """

    def seeds(self, seed: int, k: int) -> tuple:
        return (seed + 1000 * k, seed + 1 + 1000 * k)

    def inputs(self, seeds) -> list:
        return interleave(
            geomphase.random_evolved_scenarios(100, seed=seeds[0]),
            geomphase.random_independent_scenarios(100, seed=seeds[1]),
        )

    def call(self, scenario):
        return geomphase.method_reconciliation(scenario, dim=TruncationDim(N_MAX))

    def references(self, units) -> list:
        return [None if s.is_evolved else oracle_phase(s) for s in units]

    def failed_rows(self, scenario, row, reference) -> int:
        if row is None or row.flag != "ok":
            return 1
        pairing = row.phase_of("phase_space_pairing")
        if phase_error(row.phase_of("fock_oracle"), pairing) > PHASE_TOL:
            return 1
        return int(reference is not None and phase_error(pairing, reference) > PHASE_TOL)

    def corrupt(self, row):
        res = row.results["phase_space_pairing"]
        wrong = dataclasses.replace(res, phase=corrupted_phase(res.phase))
        return dataclasses.replace(row, results={**row.results, "phase_space_pairing": wrong})


def quarter_each(scenarios: list, per_occupation: int) -> list:
    """The first per_occupation scenarios of each occupation, in drawn order."""
    counts: dict = {}
    out = []
    for s in scenarios:
        if counts.get(s.occupation, 0) < per_occupation:
            counts[s.occupation] = counts.get(s.occupation, 0) + 1
            out.append(s)
    if len(out) != 4 * per_occupation:
        raise ValueError(f"draw too small for {per_occupation} scenarios per occupation")
    return out


class PairingDirect(ScenarioRows):
    """500 chains and 500 triangles per pass through the pairing route alone.

    Occupation 11 costs about 25 times the others, so each pass takes the
    generators' expected mix exactly, a quarter per occupation, rather than
    letting rows_per_s move with the draw.
    """

    def seeds(self, seed: int, k: int) -> tuple:
        base = 1_000_000 + 1000 * seed + 2 * k
        return (base, base + 1)

    def inputs(self, seeds) -> list:
        return interleave(
            quarter_each(geomphase.random_evolved_scenarios(1000, seed=seeds[0]), 125),
            quarter_each(geomphase.random_independent_scenarios(1000, seed=seeds[1]), 125),
        )

    def call(self, scenario):
        return scenario.pairing_invariant()

    def references(self, units) -> list:
        dim = TruncationDim(CHECK_N_MAX)
        return [s.fock_invariant(dim).phase if s.is_evolved else oracle_phase(s) for s in units]

    def failed_rows(self, scenario, result, reference) -> int:
        return int(result is None or phase_error(result.phase, reference) > PHASE_TOL)

    def corrupt(self, result):
        return dataclasses.replace(result, phase=corrupted_phase(result.phase))


class CliSweep:
    """One `bargmann-phase sweep` per pass, called in-process through cli.main."""

    span = "cli.sweep"

    def __init__(self, out_dir: Path, time_rows: bool):
        self.out_dir = out_dir
        self.row_seconds = []
        if time_rows:
            # Per-row latency inside the sweep's own worker pool.
            reconcile = cli.method_reconciliation

            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return reconcile(*args, **kwargs)
                finally:
                    self.row_seconds.append(time.perf_counter() - start)

            cli.method_reconciliation = timed

    def seeds(self, seed: int, k: int) -> tuple:
        return (2_000_000 + 1000 * seed + k,)

    def inputs(self, seeds) -> list:
        rng = np.random.default_rng(seeds[0])
        starts = [float(s) for s in rng.uniform(0.0, math.pi / SWEEP_POINTS, size=2)]
        grids = [[s + i * math.pi / SWEEP_POINTS for i in range(SWEEP_POINTS)] for s in starts]
        out = self.out_dir / f"sweep-{seeds[0]}.csv"
        argv = ["sweep", "--occupation", "1,1", "--centers", SWEEP_VERTEX, "--n-max", str(N_MAX),
                "--out", str(out)]
        for flag, s in zip(("--theta1", "--theta2"), starts):
            argv += [flag, f"{s!r}:{s + math.pi!r}:{SWEEP_POINTS}"]
        return [(argv, out, grids)]

    def rows_of(self, unit) -> int:
        return SWEEP_POINTS * SWEEP_POINTS

    def call(self, unit):
        argv, out, _ = unit
        code = cli.main(argv)
        with open(out, newline="", encoding="utf-8") as fh:
            return code, list(csv.reader(fh))

    def references(self, units) -> list:
        return [[(t1, t2) for t1 in grids[0] for t2 in grids[1]] for _, _, grids in units]

    def failed_rows(self, unit, result, grid) -> int:
        if result is None or result[0] != 0 or not result[1] or result[1][0] != SWEEP_HEADER:
            return len(grid)
        rows = result[1][1:]
        failed = abs(len(grid) - len(rows))
        for (t1, t2), row in zip(grid, rows):
            try:
                theta1, theta2, fock, pairing = (float(x) for x in row[:4])
            except ValueError:
                failed += 1
                continue
            ok = (
                len(row) == len(SWEEP_HEADER)
                and math.isclose(theta1, t1, rel_tol=1e-11, abs_tol=1e-11)
                and math.isclose(theta2, t2, rel_tol=1e-11, abs_tol=1e-11)
                and row[-1] == "ok"
                and phase_error(fock, pairing) <= PHASE_TOL
            )
            failed += not ok
        return failed

    def corrupt(self, result):
        code, (header, first, *rest) = result
        first = list(first)
        first[3] = repr(corrupted_phase(float(first[3])))
        return code, [header, first, *rest]


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas}


def run(args) -> dict:
    package_dir = Path(bargmann_phase.__file__).resolve().parent
    if package_dir != ROOT / "src" / "bargmann_phase":
        raise SystemExit(f"imported bargmann_phase from {package_dir}, not from this checkout")
    tracer = Tracer() if args.trace else None
    if args.workload == "cli_sweep":
        workload = CliSweep(Path(args.out_dir), time_rows=not args.trace)
    else:
        workload = {"acceptance_population": AcceptancePopulation,
                    "pairing_direct": PairingDirect}[args.workload]()
    seeds = workload.seeds(args.seed, args.pass_index)
    units = workload.inputs(seeds)
    if args.max_rows is not None:
        units = units[: args.max_rows]
    first_row_at = time.monotonic()
    report = {"seeds": list(seeds), "first_row_at": first_row_at, "env": environment()}
    if not units:
        return report

    results, latencies, errors = [], [], []
    if tracer:
        tracer.install(bargmann_phase)
    start = time.perf_counter()
    for unit in units:
        if args.deadline is not None and results and time.perf_counter() - start >= args.deadline:
            break
        row_start = time.perf_counter()
        try:
            if tracer is None:
                result = workload.call(unit)
            else:
                with tracer.span(workload.span, {}) as attrs:
                    cpu_start = time.process_time()
                    result = workload.call(unit)
                    attrs["cpu_s"] = time.process_time() - cpu_start
        except Exception as exc:  # a raise is one failed operation, not a crash
            result = None
            errors.append(repr(exc))
        latencies.append(time.perf_counter() - row_start)
        results.append(result)
    timed_s = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    units = units[: len(results)]
    references = workload.references(units)
    failures = [workload.failed_rows(*row) for row in zip(units, results, references)]
    # Checker self-test: a corrupted copy of a result that passed must fail.
    good = failures.index(0) if 0 in failures else None
    selftest = good is not None and workload.failed_rows(
        units[good], workload.corrupt(results[good]), references[good]
    ) > 0
    row_seconds = workload.row_seconds or latencies
    report.update(
        units=len(units),
        attempted=sum(workload.rows_of(u) for u in units),
        failed=sum(failures),
        timed_s=timed_s,
        latencies_ms=[t * 1e3 for t in row_seconds],
        rss_kb=rss_kb,
        selftest_counted_failed=selftest,
        errors=errors[:5],
    )
    if tracer:
        report.update(spans=tracer.spans, absent=tracer.absent)
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("acceptance_population", "pairing_direct", "cli_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--max-rows", type=int, default=None)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench-out"))
    report = run(parser.parse_args())
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
