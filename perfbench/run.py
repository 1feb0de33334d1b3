"""Benchmark of bargmann-phase: one workload per call, each pass in a fresh child.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads, metrics and the predictions
that tie them together are described in perfbench/README.md.

With --trace 0 the run repeats passes of the workload (perfbench/workload.py,
each in a new Python process) while another pass still fits in S seconds,
then prints the end-to-end metrics. With --trace 1 it spends about S/2
seconds on untraced passes and then replays the same rows with every
public function of the package wrapped by spans; it prints the per-layer
metrics and trace.overhead_ratio, traced wall over untraced wall.

Every row is checked after it is timed; the last line of standard output
is {"correct", "attempted", "failed", "metrics"}. A full record of the run
(environment, seeds, per-pass figures and, when traced, every span) is
written to .perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("acceptance_population", "pairing_direct", "cli_sweep")
# Thread settings a run must not inherit: the program's own defaults are
# what is measured.
THREAD_VARS = ("BARGMANN_PHASE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}

    def child(self, pass_index: int, *, max_rows=None, deadline=None, trace=False) -> dict:
        cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass-index", str(pass_index), "--trace", str(int(trace)),
               "--out-dir", str(OUT_DIR)]
        if max_rows is not None:
            cmd += ["--max-rows", str(max_rows)]
        if deadline is not None:
            cmd += ["--deadline", f"{deadline:.3f}"]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"pass {pass_index} did not end within the run's time limit")
        if proc.returncode != 0:
            raise RunFailed(f"pass {pass_index} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["first_row_at"] - spawned
        report["wall_s"] = time.monotonic() - spawned
        report["pass_index"] = pass_index
        return report

    def passes(self, budget: float, time_box: bool) -> list:
        """Untraced passes while the next one is expected to fit in the budget."""
        start = time.monotonic()
        done = []
        while True:
            elapsed = time.monotonic() - start
            if done and elapsed + done[-1]["wall_s"] > budget:
                return done
            deadline = max(budget - elapsed, 0.0) if time_box else None
            done.append(self.child(len(done), deadline=deadline))


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile q.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    density at each rank's midpoint. Unlike a single order statistic it
    stays put when the rows split into clusters: the acceptance population
    is 100 triangles near 50 ms and 100 chains near 220 ms, and its plain
    median is the midpoint of the slowest triangle and the fastest chain.
    """
    x = sorted(values)
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def end_to_end(passes: list, setups: list) -> dict:
    rows = sum(p["attempted"] for p in passes)
    timed = sum(p["timed_s"] for p in passes)
    latencies = [t for p in passes for t in p["latencies_ms"]]
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} child starts"),
        "rows_per_s": (rows / timed, "1/s", f"{rows} rows in {timed:.2f} s timed"),
        "row_ms_p50": (hd_quantile(latencies, 0.5), "ms", f"{len(latencies)} rows timed one by one"),
        "row_ms_p95": (hd_quantile(latencies, 0.95), "ms", f"{len(latencies)} rows timed one by one"),
        "peak_rss_mb": (max(p["rss_kb"] for p in passes) / 1024, "MB",
                        f"largest ru_maxrss of {len(passes)} pass children"),
    }


def environment(first_report: dict) -> dict:
    env = dict(first_report["env"])
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        thread_vars_inherited={k: os.environ.get(k) for k in THREAD_VARS},
        thread_vars_in_children="unset",
    )
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "bargmann_phase" / "__init__.py").is_file():
        print(f"perfbench: no bargmann_phase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            plain = runner.passes(args.seconds / 2, time_box=True)
            traced = [runner.child(p["pass_index"], max_rows=p["units"], trace=True) for p in plain]
            absent = sorted({name for t in traced for name in t["absent"]})
            metrics = {
                name: (m["value"], m["unit"], "")
                for name, m in layer_metrics([t["spans"] for t in traced], absent).items()
            }
            ratio = sum(t["timed_s"] for t in traced) / sum(p["timed_s"] for p in plain)
            metrics["trace.overhead_ratio"] = (ratio, "ratio", "traced wall / untraced wall, same rows")
            passes = plain + traced
        else:
            passes = runner.passes(args.seconds, time_box=False)
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.child(len(setups), max_rows=0)["setup_s"])
            metrics = end_to_end(passes, setups)
    except RunFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    selftest = all(p["selftest_counted_failed"] for p in passes)
    env = environment(passes[0])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
        "metrics": {name: {"value": v, "unit": u, "note": n} for name, (v, u, n) in metrics.items()},
    }
    if args.trace:
        record["spans"] = [p["spans"] for p in passes if "spans" in p]
        record["absent"] = absent
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}, generator seeds of the "
          f"{len(passes)} passes: " + " ".join("/".join(map(str, p["seeds"])) for p in passes[:8])
          + (" ..." if len(passes) > 8 else ""))
    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    if args.trace and absent:
        print("absent (function not in the package): " + ", ".join(absent))
    errors = [f"pass {p['pass_index']}: {err}" for p in passes for err in p["errors"]]
    for err in errors[:5]:
        print(f"error in {err}")
    print(f"checker self-test: a corrupted result counted as failed in "
          f"{sum(p['selftest_counted_failed'] for p in passes)}/{len(passes)} passes")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and selftest,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
