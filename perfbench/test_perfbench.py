"""Self-tests of the benchmark: span arithmetic, metric names, and that
tracing leaves the simulator on its default fast path."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench.rep import layer_metrics
from perfbench.tracer import CONTROLLER_HOOKS, Tracer, fold, install

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


@pytest.fixture
def small_config():
    from repro.config import reduced_row_config

    return reduced_row_config(nrh=500, rows_per_bank=2048)


def _installed():
    return install(Tracer())


def test_self_time_is_duration_minus_time_children_cover():
    names = ["root", "a", "b", "c", "d"]
    # (label, start, end, parent); listed out of start order on purpose.
    spans = [
        (0, 0.0, 10.0, -1),   # root
        (2, 2.0, 5.0, 0),     # b overlaps a: the overlap is covered once
        (1, 1.0, 3.0, 0),     # a
        (3, 9.0, 12.0, 0),    # c runs past root's end: clipped to [9, 10]
        (4, 1.5, 2.5, 2),     # d inside a
    ]
    labels, starts, ends, parents = (list(column) for column in zip(*spans))
    totals = fold(names, labels, starts, ends, parents)
    assert totals["root"] == [1, 10.0, 10.0 - (4.0 + 1.0)]
    assert totals["a"] == [1, 2.0, 1.0]
    assert totals["b"] == [1, 3.0, 3.0]
    assert totals["c"] == [1, 3.0, 3.0]
    assert totals["d"] == [1, 1.0, 1.0]


def test_nested_spans_fold_and_same_label_calls_join_their_caller():
    tracer = Tracer()

    def inner(n):
        return sum(range(n))

    traced_inner = tracer.wrap(inner, "inner")

    def recurse(depth):
        return recurse_traced(depth - 1) if depth else traced_inner(10_000)

    recurse_traced = tracer.wrap(recurse, "outer")
    recurse_traced(3)
    totals, _, spans = tracer.totals()
    # The recursion is one "outer" span; the inner call is its only child.
    assert spans == 2
    assert totals["outer"][0] == totals["inner"][0] == 1
    assert totals["outer"][2] + totals["inner"][1] == pytest.approx(
        totals["outer"][1]
    )


def test_metric_names_are_well_formed_and_declared_once():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [
        metric["name"]
        for group in ("end_to_end", "per_layer")
        for metric in BENCHMARK[group]
    ] + [workload["name"] for workload in BENCHMARK["workloads"]]
    assert all(pattern.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))


def test_traced_run_reports_every_declared_per_layer_metric():
    tracer = _installed()
    try:
        counts = dict.fromkeys(
            (
                "requests", "llc_hits", "llc_misses", "dirty_evictions",
                "counter_accesses", "mitigation_refreshes", "blackouts",
                "throttled_requests", "activations", "row_hits",
                "row_accesses", "victim_refreshes",
            ),
            0,
        )
        reported = layer_metrics(tracer.names, {}, {}, 0, counts, [], 1)
    finally:
        tracer.uninstall()
    # trace.overhead_s is the one metric run.py derives from two processes.
    declared = {m["name"] for m in BENCHMARK["per_layer"]} - {"trace.overhead_s"}
    assert declared <= set(reported)


def _hook_flags(config):
    from repro.dram.dram_system import DRAMSystem
    from repro.mc.controller import MemoryController
    from repro.trackers.registry import available_trackers, create_tracker

    flags = {}
    for name in available_trackers():
        controller = MemoryController(
            config, DRAMSystem(config), create_tracker(name, config)
        )
        flags[name] = (
            controller._tracker_notes_source,
            controller._tracker_throttles,
            controller._tracker_delays_completion,
            controller._tracker_extends_act,
        )
    return flags


def test_tracing_leaves_controller_hook_flags_unchanged(small_config):
    from repro.trackers.graphene import GrapheneTracker

    before = _hook_flags(small_config)
    original = GrapheneTracker.on_activation
    tracer = _installed()
    try:
        assert GrapheneTracker.on_activation is not original
        assert not any(
            name in CONTROLLER_HOOKS for _, name, _ in tracer._patched
        )
        assert _hook_flags(small_config) == before
    finally:
        tracer.uninstall()
    assert GrapheneTracker.on_activation is original


def test_traced_simulation_matches_untraced(small_config):
    from repro.sim.experiment import run_workload

    def simulate():
        return run_workload(
            config=small_config,
            tracker="dapper-h",
            workload="429.mcf",
            attack="refresh",
            requests_per_core=300,
            attack_warmup_activations=2_000,
            llc_warmup_accesses=500,
        ).to_dict()

    untraced = simulate()
    tracer = _installed()
    try:
        traced = simulate()
    finally:
        tracer.uninstall()
    totals, counters, _ = tracer.totals()
    assert traced == untraced
    assert counters["trackers.on_activation.calls"] > 0
    assert totals["sim.engine.run"][0] == 1
    assert totals["dram"][0] >= counters["dram.access_flat.calls"] > 0
