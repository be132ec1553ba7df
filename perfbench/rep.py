"""One repetition of one workload, in a fresh process.

Usage (from the root of a checkout, with ``src`` and the root on
``PYTHONPATH``; :mod:`perfbench.run` does this)::

    python3 -m perfbench.rep --workload NAME --seed N --workdir DIR \
        --mode {setup,plain,traced} [--scalar-check] [--warm-from REPDIR]

Prints one JSON line.  ``setup`` mode stops after set-up (replaying an
earlier repetition's warehouse with ``--warm-from``); ``plain`` runs the
cold and warm phases untraced and checks their outputs; ``traced`` runs the
same phases with every layer wrapped (:mod:`perfbench.tracer`) and reports
per-layer totals.  A fresh process per repetition keeps in-process memos
(such as the LLC warm-up memo) empty, as for a user's CLI call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

#: Least duration of an untraced process's warm phase.
WARM_SECONDS = 1.0


def _result_counts(payloads: list[dict]) -> dict[str, float]:
    """Simulated per-layer statistics summed over the cold simulations."""
    total = {
        name: 0
        for name in (
            "requests", "llc_hits", "llc_misses", "dirty_evictions",
            "counter_accesses", "mitigation_refreshes", "blackouts",
            "throttled_requests", "activations", "row_hits", "row_accesses",
            "victim_refreshes",
        )
    }
    for payload in payloads:
        llc = payload["llc_stats"]
        mc = payload["controller_stats"]
        dram = payload["dram_stats"]
        total["requests"] += sum(core["requests"] for core in payload["core_results"])
        total["llc_hits"] += llc["hits"]
        total["llc_misses"] += llc["misses"]
        total["dirty_evictions"] += llc["dirty_evictions"]
        total["counter_accesses"] += mc["tracker_counter_accesses"]
        total["mitigation_refreshes"] += mc["mitigation_refreshes"]
        total["blackouts"] += mc["structure_reset_blackouts"]
        total["throttled_requests"] += mc["throttled_requests"]
        total["activations"] += dram["activations"]
        total["row_hits"] += dram["row_hits"]
        total["row_accesses"] += (
            dram["row_hits"] + dram["row_misses"] + dram["row_conflicts"]
        )
        total["victim_refreshes"] += dram["victim_refreshes"]
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(names, folded, counters, spans, counts, runners, scenarios) -> dict:
    """Per-layer metrics by name from traced totals and simulated counts.

    ``runners`` are the sweep runners the cold phase created; the sweep
    ratios describe the cold phase only.
    """

    def inclusive(label):
        return folded.get(label, [0, 0.0, 0.0])[1]

    def own(*labels):
        return sum(folded.get(label, [0, 0.0, 0.0])[2] for label in labels)

    simulations = counters.get("sim.sweep.simulations", 0)
    calls = counters.get("trackers.on_activation.calls", 0)
    requested = sum(runner.stats.simulations for runner in runners)
    reports = [runner.worker_report() for runner in runners]
    metrics = {
        "cpu.entries": counters.get("cpu.entries", 0),
        "cpu.self_s": own("cpu"),
        "attacks.entries": counters.get("attacks.entries", 0),
        "attacks.self_s": own("attacks"),
        "dram.address.decoded": counters.get("dram.address.decoded", 0),
        "dram.address.self_s": own("dram.address"),
        "sim.experiment.warmup_s": inclusive("sim.experiment.warmup"),
        "sim.experiment.warmup_activations": counters.get(
            "sim.experiment.warmup_activations", 0
        ),
        "sim.experiment.self_s": own("sim.experiment", "sim.experiment.warmup"),
        "trackers.on_activation.calls": calls,
        "trackers.mitigation_ratio": _ratio(
            counters.get("trackers.on_activation.active", 0), calls
        ),
        "trackers.create_s": inclusive("trackers.create"),
        "crypto.encrypt.calls": counters.get("crypto.encrypt.calls", 0),
        "crypto.self_s": own("crypto"),
        "mc.service_row.calls": counters.get("mc.service_row.calls", 0),
        "mc.self_s": own("mc", "mc.service"),
        "mc.counter_accesses": counts["counter_accesses"],
        "mc.mitigation_refreshes": counts["mitigation_refreshes"],
        "mc.blackouts": counts["blackouts"],
        "mc.throttled_requests": counts["throttled_requests"],
        "dram.access_flat.calls": counters.get("dram.access_flat.calls", 0),
        "dram.self_s": own("dram"),
        "dram.activations": counts["activations"],
        "dram.row_hit_rate": _ratio(counts["row_hits"], counts["row_accesses"]),
        "dram.victim_refreshes": counts["victim_refreshes"],
        "cache.accesses": counts["llc_hits"] + counts["llc_misses"],
        "cache.hit_rate": _ratio(
            counts["llc_hits"], counts["llc_hits"] + counts["llc_misses"]
        ),
        "cache.dirty_evictions": counts["dirty_evictions"],
        "sim.engine.setup_s": inclusive("sim.engine.init"),
        "sim.engine.run_s": inclusive("sim.engine.run"),
        "sim.engine.self_s": own("sim.engine.run"),
        "sim.sweep.simulations": simulations,
        "sim.sweep.dedup_ratio": _ratio(simulations, 2 * scenarios),
        "sim.sweep.cache_hit_rate": _ratio(
            sum(runner.stats.cache_hits for runner in runners), requested
        ),
        "sim.sweep.pool_utilization": max(
            (report["utilization"] for report in reports if report), default=0.0
        ),
        "sim.sweep.self_s": own("sim.sweep", "sim.sweep.execute"),
        "store.put.calls": counters.get("store.put.calls", 0),
        "store.put_s": inclusive("store.put"),
        "store.get.calls": counters.get("store.get.calls", 0),
        "store.get_s": inclusive("store.get"),
        "scenarios.expand_s": inclusive("scenarios.expand"),
        "eval.figure1_s": inclusive("eval.figure1"),
        "eval.figure10_s": inclusive("eval.figure10"),
        "trace.spans": spans,
    }
    for label in names:
        if label.startswith("trackers.") and label != "trackers.create":
            metrics[f"{label}.self_s"] = own(label)
    return metrics


def warm_phase(workload, specs, store_path, out: dict, traced: bool = False):
    """Replay the cold simulations; returns the last replay's runner.

    A traced run replays exactly ``workload.WARM_REPEATS`` times, so its
    counts repeat.  An untraced one also keeps replaying until the phase has
    lasted :data:`WARM_SECONDS`: the machine's speed changes within fractions
    of a second, so a run's warm samples must span seconds, not a burst."""
    samples = []
    window_start = time.monotonic()
    while len(samples) < workload.WARM_REPEATS or (
        not traced and time.monotonic() - window_start < WARM_SECONDS
    ):
        started = perf_counter()
        runner = workload.warm(specs, store_path)
        samples.append(perf_counter() - started)
    out["warm_samples"] = samples
    out["warm_window"] = [window_start, time.monotonic()]
    return runner


def run(args) -> dict:
    from perfbench.workloads import WORKLOADS, Capture, canonical, scalar_payload

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    capture = Capture().install()
    tracer = None
    if args.mode == "traced":
        from perfbench.tracer import Tracer, install

        spill = workdir / "spans"
        spill.mkdir(exist_ok=True)
        tracer = install(Tracer(spill_dir=spill))
    workload = WORKLOADS[args.workload](args.seed, workdir, capture)
    workload.setup()
    out = {"setup_end": time.monotonic()}
    if args.mode == "setup":
        if args.warm_from:
            source = Path(args.warm_from)
            specs = pickle.loads((source / "specs.pickle").read_bytes())
            warm_phase(workload, specs, source / "warehouse.sqlite", out)
        return out

    window_start = time.monotonic()
    started = perf_counter()
    workload.cold()
    out["wall_s"] = perf_counter() - started
    out["cold_window"] = [window_start, time.monotonic()]

    if tracer is not None:
        tracer.recording = False
        cold_runners = list(tracer.runners)
    triples, normalized = workload.collect()
    workload.prepare_warm(triples)
    specs = [spec for _, spec, _ in triples]
    (workdir / "specs.pickle").write_bytes(pickle.dumps(specs))
    if tracer is not None:
        tracer.recording = True
    runner = warm_phase(workload, specs, workload.store_path(), out, tracer is not None)
    if tracer is not None:
        tracer.recording = False
    payloads = [payload for _, _, payload in triples]
    counts = _result_counts(payloads)
    if tracer is not None:
        folded, counters, spans = tracer.totals()
        out["layers"] = layer_metrics(
            tracer.names, folded, counters, spans, counts, cold_runners,
            workload.scenarios,
        )
        tracer.uninstall()

    failures = []
    attempted = len(triples)
    failed = 0
    # Warm replay: a 100% hit rate and byte-identical results.
    if runner.stats.cache_misses or runner.stats.cache_hits != runner.stats.simulations:
        failures.append("warm replay missed the warehouse")
        failed += len(triples)
    else:
        mismatched = sum(
            canonical(runner.simulate(spec).to_dict()) != canonical(payload)
            for _, spec, payload in triples
        )
        if mismatched:
            failures.append(f"warm replay differs from cold on {mismatched} result(s)")
            failed += mismatched
    for name, ok in workload.shape_checks():
        if not ok:
            failures.append(f"check failed: {name}")
            failed += len(triples)
    if args.scalar_check:
        _, spec, payload = workload.scalar_case(triples)
        attempted += 1
        if canonical(scalar_payload(spec)) != canonical(payload):
            failures.append(f"scalar reference differs on {spec.describe()}")
            failed += 1

    out.update(
        digest=hashlib.sha256(
            canonical(
                {
                    "results": [[key, payload] for key, _, payload in triples],
                    "outputs": workload.outputs,
                }
            ).encode()
        ).hexdigest(),
        outputs=workload.outputs,
        simulations=len(triples),
        requests=counts["requests"],
        norm_perf=statistics.fmean(normalized),
        attempted=attempted,
        failed=min(failed, attempted),
        failures=failures,
    )
    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (usage_self + usage_children) / 1024.0
    return out


def main(argv=None) -> int:
    from perfbench.speed import Sampler

    sampler = Sampler().start()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--scalar-check", action="store_true")
    parser.add_argument(
        "--warm-from", help="setup mode: also replay this repetition's warehouse"
    )
    args = parser.parse_args(argv)
    out = run(args)
    out["speed_samples"] = sampler.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
