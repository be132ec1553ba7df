#!/usr/bin/env python3
"""Benchmark of the DAPPER reproduction: one workload per invocation.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs in a fresh process (:mod:`perfbench.rep`) on the
default engine.  Repetitions continue until their cold phases add up to
``--seconds``; the run reports the median, in seconds at the reference
machine speed of :mod:`perfbench.speed`.  ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs one untraced and
one traced repetition and prints every per-layer metric, including the
tracing overhead.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits with status 2, printing no result, when the checkout holds no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.speed import scale  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: Setup-only processes top the repetitions up to this many set-up and warm
#: samples.
SETUP_SAMPLES = 8
#: No repetition starts once the run is this old (the run must end in 180 s).
START_DEADLINE_S = 100.0
REP_TIMEOUT_S = 170.0
#: Metrics measured on the machine; every other metric is simulated.
HOST_UNITS = {"s", "1/s", "MB"}
HOST_METRICS = {"sim.sweep.pool_utilization", "trace.spans"}


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_SIM_ENGINE", None)  # always the default engine
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, workdir: Path, mode: str, *options: str) -> dict:
    """Run one repetition in a fresh process; returns its report.

    ``setup_s`` is measured from just before the process starts to the
    start of its first timed simulation (the monotonic clock is shared by
    every process of the machine)."""
    command = [
        sys.executable, "-m", "perfbench.rep", "--workload", workload,
        "--seed", str(seed), "--workdir", str(workdir), "--mode", mode,
    ] + list(options)
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, stderr = process.communicate()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        return {"error": f"{mode} repetition exited with {process.returncode}"}
    report = json.loads(lines[-1])
    report["setup_window"] = [started, report.pop("setup_end")]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}", file=sys.stderr)
        return 2
    spec = declared_metrics()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    run_started = time.monotonic()
    workdir = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    try:
        reps: list[dict] = []
        errors: list[str] = []
        while True:
            report = spawn(
                args.workload, args.seed, workdir / f"rep-{len(reps)}", "plain",
                *([] if reps else ["--scalar-check"]),
            )
            if "error" in report:
                errors.append(report["error"])
                break
            reps.append(report)
            if (
                args.trace
                or sum(r["wall_s"] for r in reps) >= args.seconds
                or time.monotonic() - run_started > START_DEADLINE_S
            ):
                break
        probes: list[dict] = []
        traced = None
        if not errors and args.trace:
            traced = spawn(args.workload, args.seed, workdir / "traced", "traced")
            if "error" in traced:
                errors.append(traced["error"])
                traced = None
        while not errors and not args.trace and len(reps) + len(probes) < SETUP_SAMPLES:
            probe = spawn(
                args.workload, args.seed, workdir / f"setup-{len(probes)}", "setup",
                "--warm-from", str(workdir / "rep-0"),
            )
            if "error" in probe:
                errors.append(probe["error"])
                break
            probes.append(probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Every process's speed samples, by the machine-wide monotonic clock.
    samples = sorted(
        tuple(sample)
        for report in reps + probes + ([traced] if traced else [])
        for sample in report["speed_samples"]
    )

    def reference_seconds(seconds, window, statistic=statistics.fmean) -> float:
        return seconds * scale(samples, *window, statistic)

    for report in reps + ([traced] if traced else []):
        report["raw_wall_s"] = report["wall_s"]
        report["wall_s"] = reference_seconds(report["wall_s"], report["cold_window"])
    warm_seconds = [
        reference_seconds(seconds, report["warm_window"], statistics.median)
        for report in reps + probes
        for seconds in report["warm_samples"]
    ]
    setups = [report["setup_window"] for report in reps + probes]
    setup_seconds = [reference_seconds(end - start, (start, end)) for start, end in setups]

    failures = list(errors)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for report in reps:
        failures.extend(report["failures"])
    digests = {r["digest"] for r in reps}
    if len(digests) > 1:
        failures.append("result digest differs between repetitions")
        failed = attempted
    if traced is not None and reps and traced["digest"] != reps[0]["digest"]:
        failures.append("traced result digest differs from the untraced one")
        failed = attempted
    if errors:
        failed = max(failed + 1, 1)
        attempted = max(attempted, failed)

    metrics: dict[str, dict] = {}
    if reps and not errors:
        wall = statistics.median(r["wall_s"] for r in reps)
        values = {
            "wall_s": wall,
            "sim_req_per_s": reps[0]["requests"] / wall,
            "setup_s": statistics.median(setup_seconds),
            "warm_s": statistics.median(warm_seconds),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
            "norm_perf": reps[0]["norm_perf"],
        }
        if traced is not None:
            # Layer seconds are taken at the traced repetition's speed.
            traced_scale = scale(samples, *traced["cold_window"])
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = {
                name: value * traced_scale if units.get(name) == "s" else value
                for name, value in traced["layers"].items()
            }
            values["trace.overhead_s"] = traced["wall_s"] - wall
        group = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group
        }

    first = reps[0] if reps else {}
    print(f"perfbench {args.workload}: seed {args.seed}, {len(reps)} untraced "
          f"repetition(s), {len(setups)} setup sample(s)"
          + (", 1 traced repetition" if traced is not None else ""))
    if first:
        print(f"  result digest {first['digest']} ({first['simulations']} simulations)")
        print("  cold phases, host s as measured: "
              + " ".join(f"{r['raw_wall_s']:.3f}" for r in reps)
              + "; at reference speed: "
              + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    if warm_seconds:
        raw_warm = [seconds for r in reps + probes for seconds in r["warm_samples"]]
        print(f"  warm replays: {len(raw_warm)}, median host s as measured "
              f"{statistics.median(raw_warm):.6f}; at reference speed "
              f"{statistics.median(warm_seconds):.6f}")
    for name, metric in metrics.items():
        host = metric["unit"] in HOST_UNITS or name in HOST_METRICS
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']} "
              f"({'host' if host else 'simulated'})")
    print(f"  failed_frac {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} simulations)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": not failures and bool(reps),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
