"""Event-engine parity suite: the discrete-event engine is bit-identical.

The event engine (:mod:`repro.sim.events.engine`) replaces the scalar
scheduler heap with a typed event queue and adds a vectorized quiescent
stretch executor, but must produce byte-for-byte the same
:class:`SimulationResult` as the scalar reference engine -- for every
registered tracker, for multi-attacker core plans, for trace replay, with
and without numpy, and with event-bus subscribers attached.  These tests
hold the event engine to the exact bar ``tests/test_batch_parity.py`` sets
for the batched engine.
"""

import json
import random

import pytest

from repro.config import reduced_row_config
from repro.cpu.trace import TraceEntry
from repro.cpu.tracefile import (
    FileTraceGenerator,
    read_trace,
    record_workload_trace,
    write_trace,
)
from repro.scenarios import family_by_name
from repro.sim.experiment import run_workload
from repro.sim.sweep import CoreAssignment
from repro.trackers.registry import available_trackers


REQUESTS = 400
ATTACK_WARMUP = 20_000
LLC_WARMUP = 5_000


def _canon(result) -> dict:
    """Serialized result, round-tripped the way the warehouse stores it."""
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))


def _run(
    tracker: str,
    engine: str,
    attack="refresh",
    core_plan=None,
    requests=REQUESTS,
):
    return _canon(
        run_workload(
            config=reduced_row_config(nrh=500),
            tracker=tracker,
            workload="453.povray",
            attack=attack,
            requests_per_core=requests,
            attack_warmup_activations=ATTACK_WARMUP,
            llc_warmup_accesses=LLC_WARMUP,
            core_plan=core_plan,
            engine=engine,
        )
    )


def _run_spec(spec, engine):
    return _canon(
        run_workload(
            config=spec.config,
            tracker=spec.tracker,
            workload=spec.workload,
            attack=spec.attack,
            requests_per_core=spec.requests_per_core,
            seed=spec.seed,
            attack_warmup_activations=spec.attack_warmup_activations,
            llc_warmup_accesses=spec.llc_warmup_accesses,
            core_plan=spec.core_plan,
            engine=engine,
        )
    )


class TestEngineParity:
    @pytest.mark.parametrize("tracker", available_trackers())
    def test_event_matches_scalar(self, tracker):
        assert _run(tracker, "event") == _run(tracker, "scalar")

    @pytest.mark.parametrize("tracker", ["none", "graphene"])
    def test_benign_scenarios_match(self, tracker):
        assert _run(tracker, "event", attack=None) == _run(
            tracker, "scalar", attack=None
        )

    def test_multi_attacker_plan_matches(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="attack", name="refresh", hammer_rate=0.5),
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="workload", name="429.mcf", intensity=0.5),
        )
        assert _run("dapper-h", "event", attack=None, core_plan=plan) == _run(
            "dapper-h", "scalar", attack=None, core_plan=plan
        )


class TestQuiescentFastPath:
    """Scenarios whose queue goes quiescent engage the stretch executor.

    A single budgeted core next to idle cores empties the event queue on the
    first pop, so these runs spend nearly all their requests on the bitmap /
    vector-mode paths -- exactly the code the plain parity runs above only
    touch in their final stretch.
    """

    def test_single_budgeted_workload_core_matches(self):
        plan = (
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        assert _run(
            "graphene", "event", attack=None, core_plan=plan, requests=5_000
        ) == _run(
            "graphene", "scalar", attack=None, core_plan=plan, requests=5_000
        )

    def test_hot_set_trace_vector_mode_matches(self, tmp_path):
        # A small hot set with gaps far above the LLC hit latency drives the
        # whole-run vector mode (accumulated issue times, batched LRU
        # updates, heap-tail reconstruction) for essentially every request.
        rng = random.Random(7)
        entries = [
            TraceEntry(
                gap_instructions=rng.randint(2_500, 7_500),
                address=(1 << 20) + 64 * rng.randrange(256),
                is_write=rng.random() < 0.25,
            )
            for _ in range(4_096)
        ]
        path = tmp_path / "hot.trace"
        write_trace(path, entries)
        plan = (
            CoreAssignment(role="trace", trace=str(path)),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
            CoreAssignment(role="idle"),
        )
        assert _run(
            "graphene", "event", attack=None, core_plan=plan, requests=20_000
        ) == _run(
            "graphene", "scalar", attack=None, core_plan=plan, requests=20_000
        )


class TestTraceReplayParity:
    def _write_povray_trace(self, tmp_path, entries=2_000):
        recorded = record_workload_trace(
            "453.povray", entries, config=reduced_row_config(nrh=500)
        )
        path = tmp_path / "povray.trace"
        write_trace(path, recorded, header="453.povray excerpt")
        return path, recorded

    def test_trace_file_round_trips(self, tmp_path):
        path, recorded = self._write_povray_trace(tmp_path)
        assert read_trace(path) == recorded

    def test_batch_and_snapshot_replay_identically(self, tmp_path):
        path, recorded = self._write_povray_trace(tmp_path, entries=300)
        one_by_one = FileTraceGenerator(path)
        batched = FileTraceGenerator(path)
        first = [one_by_one.next_entry() for _ in range(450)]
        gaps, addresses, writes = batched.next_batch(450)
        assert [e.gap_instructions for e in first] == gaps
        assert [e.address for e in first] == addresses
        assert [e.is_write for e in first] == writes
        # A snapshot taken mid-replay restores the exact stream position.
        state = batched.state_snapshot()
        tail = batched.next_batch(100)
        batched.state_restore(state)
        assert batched.next_batch(100) == tail

    def test_trace_replay_family_matches_across_engines(self, tmp_path):
        path, _ = self._write_povray_trace(tmp_path)
        specs = family_by_name("trace-replay").expand(
            {
                "tracker": "graphene",
                "trace": str(path),
                "attack": "refresh",
                "nrh": 500,
                "geometry": "reduced",
            }
        )
        assert len(specs) == 1
        scalar = _run_spec(specs[0], "scalar")
        assert _run_spec(specs[0], "event") == scalar
        assert _run_spec(specs[0], "batched") == scalar


class TestPurePythonFallbackParity:
    def test_event_engine_without_numpy_matches(self, disable_numpy):
        reference = _run("dapper-h", "event")
        disable_numpy()
        assert _run("dapper-h", "scalar") == reference
        assert _run("dapper-h", "event") == reference


class TestEventBusObservation:
    """Subscribers observe the run without perturbing it."""

    def _spec(self):
        return family_by_name("multi-refresh-window").expand(
            {
                "tracker": "graphene",
                "workload": "453.povray",
                "windows": 2,
                "trefw_scale": 1.0 / 256.0,
                "geometry": "reduced",
                "nrh": 500,
            }
        )[0]

    def test_subscribers_preserve_results_and_count_consistently(self):
        from repro.sim.events.engine import EventDrivenSimulator
        from repro.sim.events.events import (
            BankActivate,
            RefreshTick,
            RefreshWindow,
            ServiceComplete,
            TrackerEpoch,
        )
        from repro.sim.experiment import build_core_specs, _resolve_workload
        from repro.trackers.registry import create_tracker

        spec = self._spec()
        reference = _run_spec(spec, "scalar")

        config = spec.config
        core_specs = build_core_specs(
            config,
            _resolve_workload(spec.workload),
            spec.attack,
            spec.requests_per_core,
            spec.resolved_seed(),
        )
        simulator = EventDrivenSimulator(
            config,
            create_tracker(spec.tracker, config),
            core_specs,
            llc_warmup_accesses=spec.llc_warmup_accesses,
        )
        counts: dict[type, int] = {}
        for kind in (
            ServiceComplete,
            BankActivate,
            RefreshTick,
            RefreshWindow,
            TrackerEpoch,
        ):
            def _count(event, _kind=kind):
                counts[_kind] = counts.get(_kind, 0) + 1

            simulator.events.subscribe(kind, _count)
        observed = _canon(simulator.run())

        # Observation is free of side effects on the simulation itself.
        assert observed == reference

        stats = observed["controller_stats"]
        assert counts[ServiceComplete] == stats["requests"]
        assert counts[RefreshWindow] == stats["refresh_windows"] >= 2
        assert counts[TrackerEpoch] == counts[RefreshWindow]
        assert counts[BankActivate] > 0
        assert counts[RefreshTick] > 0

    def test_unsubscribed_bus_emits_nothing(self):
        from repro.sim.events.events import EventBus, RefreshWindow

        bus = EventBus()
        assert not bus.has_subscribers
        assert not bus.wants(RefreshWindow)
        seen = []
        handler = seen.append
        bus.subscribe(RefreshWindow, handler)
        bus.emit(RefreshWindow(0.0, 1))
        bus.unsubscribe(RefreshWindow, handler)
        bus.emit(RefreshWindow(1.0, 2))
        assert len(seen) == 1
        assert not bus.has_subscribers
