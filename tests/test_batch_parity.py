"""Engine parity suite: the batched engine must be bit-identical everywhere.

The batched engine (:mod:`repro.sim.batch`) restructures the per-request hot
path but must produce byte-for-byte the same :class:`SimulationResult` as the
scalar reference engine, for every registered tracker, for multi-attacker
core plans, across worker-pool execution, and through a warehouse replay.
These tests are the contract that lets ``bench_sweep`` advertise its speedup
as a pure optimisation.
"""

import json

import pytest

from repro.config import reduced_row_config
from repro.sim.experiment import run_workload
from repro.sim.sweep import CoreAssignment, ScenarioSpec, SweepRunner
from repro.trackers.registry import available_trackers


REQUESTS = 400
ATTACK_WARMUP = 20_000
LLC_WARMUP = 5_000


def _canon(result) -> dict:
    """Serialized result, round-tripped the way the warehouse stores it."""
    return json.loads(json.dumps(result.to_dict(), sort_keys=True, default=str))


def _run(tracker: str, engine: str, attack="refresh", core_plan=None):
    return _canon(
        run_workload(
            config=reduced_row_config(nrh=500),
            tracker=tracker,
            workload="453.povray",
            attack=attack,
            requests_per_core=REQUESTS,
            attack_warmup_activations=ATTACK_WARMUP,
            llc_warmup_accesses=LLC_WARMUP,
            core_plan=core_plan,
            engine=engine,
        )
    )


class TestEngineParity:
    @pytest.mark.parametrize("tracker", available_trackers())
    def test_batched_matches_scalar(self, tracker):
        assert _run(tracker, "batched") == _run(tracker, "scalar")

    @pytest.mark.parametrize("tracker", ["none", "graphene"])
    def test_benign_scenarios_match(self, tracker):
        assert _run(tracker, "batched", attack=None) == _run(
            tracker, "scalar", attack=None
        )

    def test_multi_attacker_plan_matches(self):
        plan = (
            CoreAssignment(role="attack", name="refresh"),
            CoreAssignment(role="attack", name="refresh", hammer_rate=0.5),
            CoreAssignment(role="workload", name="453.povray"),
            CoreAssignment(role="workload", name="429.mcf", intensity=0.5),
        )
        assert _run("dapper-h", "batched", attack=None, core_plan=plan) == _run(
            "dapper-h", "scalar", attack=None, core_plan=plan
        )


class TestExecutionModeParity:
    def _specs(self):
        return [
            ScenarioSpec(
                tracker=tracker,
                workload="453.povray",
                attack="refresh",
                requests_per_core=REQUESTS,
                attack_warmup_activations=ATTACK_WARMUP,
                llc_warmup_accesses=LLC_WARMUP,
                config=reduced_row_config(nrh=500),
            )
            for tracker in ("none", "graphene", "dapper-h")
        ]

    def test_pool_matches_serial(self):
        serial = SweepRunner().run(self._specs())
        pooled = SweepRunner(jobs=2).run(self._specs())
        for a, b in zip(serial, pooled):
            assert _canon(a.result) == _canon(b.result)

    def test_warehouse_replay_matches_fresh(self, tmp_path):
        store = tmp_path / "warehouse"
        first = SweepRunner(cache_dir=store).run(self._specs())
        replayed = SweepRunner(cache_dir=store).run(self._specs())
        fresh = SweepRunner().run(self._specs())
        for a, b, c in zip(first, replayed, fresh):
            assert _canon(a.result) == _canon(b.result) == _canon(c.result)


class TestPurePythonFallbackParity:
    def test_dapper_h_without_numpy_matches(self, disable_numpy):
        reference = _run("dapper-h", "batched")
        disable_numpy()
        assert _run("dapper-h", "scalar") == reference
        assert _run("dapper-h", "batched") == reference
