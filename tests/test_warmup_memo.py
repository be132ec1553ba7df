"""The tracker warm-up memo in :func:`repro.sim.experiment.run_workload`.

A string-named tracker's attack warm-up is replayed once per process and
key; repeats restore a pickled snapshot of the warmed tracker.  These tests
pin that a restore is indistinguishable from a cold warm-up on every engine,
that every input of the warm-up is part of the key, and that snapshots stay
small (they leave the trackers' derived caches out).
"""

import pytest

import repro.sim.experiment as experiment
from repro.config import baseline_config, reduced_row_config
from repro.sim.experiment import run_workload
from repro.sim.sweep import CoreAssignment
from repro.trackers.registry import create_tracker


CONFIG = reduced_row_config(nrh=500)
REQUESTS = 300
WARMUP = 20_000
LLC_WARMUP = 4_000

#: The tracker/attack pairs of Figures 1 and 10.
PAPER_PAIRS = [
    ("hydra", "rcc-conflict"),
    ("start", "counter-streaming"),
    ("abacus", "id-streaming"),
    ("comet", "rat-thrash"),
    ("dapper-h", "row-streaming"),
    ("dapper-h", "refresh"),
]

MULTI_ATTACKER_PLAN = (
    CoreAssignment(role="attack", name="refresh"),
    CoreAssignment(role="attack", name="row-streaming", hammer_rate=0.5),
    CoreAssignment(role="workload", name="453.povray"),
    CoreAssignment(role="workload", name="429.mcf", intensity=0.5),
)


@pytest.fixture
def warmups(monkeypatch):
    """Give the test an empty memo; return a list counting cold warm-ups."""
    monkeypatch.setattr(experiment, "_TRACKER_WARM_CACHE", {})
    calls = []
    for name in ("warm_up_tracker", "warm_up_tracker_from_plan"):
        original = getattr(experiment, name)

        def counted(*args, _original=original, **kwargs):
            calls.append(args[1])
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    return calls


def _run(
    tracker="dapper-h",
    attack="refresh",
    workload="453.povray",
    engine="batched",
    config=CONFIG,
    seed=None,
    warmup=WARMUP,
    core_plan=None,
    requests=REQUESTS,
):
    return run_workload(
        config=config,
        tracker=tracker,
        workload=workload,
        attack=attack,
        requests_per_core=requests,
        seed=seed,
        attack_warmup_activations=warmup,
        llc_warmup_accesses=LLC_WARMUP,
        core_plan=core_plan,
        engine=engine,
    ).to_dict()


class TestRestoreMatchesCold:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("tracker,attack", PAPER_PAIRS)
    def test_paper_pairs(self, warmups, tracker, attack, engine):
        cold = _run(tracker, attack, workload="429.mcf", engine=engine)
        experiment.clear_warmup_memo()
        # Another workload warms the tracker; the 429.mcf repeat restores it.
        _run(tracker, attack, workload="453.povray", engine=engine)
        restored = _run(tracker, attack, workload="429.mcf", engine=engine)
        assert len(warmups) == 2
        assert restored == cold

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_multi_attacker_plan(self, warmups, engine):
        cold = _run(attack=None, core_plan=MULTI_ATTACKER_PLAN, engine=engine)
        restored = _run(attack=None, core_plan=MULTI_ATTACKER_PLAN, engine=engine)
        assert warmups == [MULTI_ATTACKER_PLAN]
        assert restored == cold


def test_restored_tracker_never_aliases_its_snapshot(warmups):
    first_a = _run("hydra", "rcc-conflict")
    first_b = _run("dapper-h", "refresh")
    assert _run("hydra", "rcc-conflict") == first_a
    assert _run("hydra", "rcc-conflict") == first_a
    assert _run("dapper-h", "refresh") == first_b
    assert len(warmups) == 2


class TestKey:
    BASE_PLAN = (
        CoreAssignment(role="attack", name="refresh"),
        CoreAssignment(role="workload", name="453.povray"),
    )

    @pytest.mark.parametrize(
        "change",
        [
            {"config": reduced_row_config(nrh=250)},
            {"seed": 7},
            {"warmup": WARMUP // 2},
            {"attack": "row-streaming"},
            {"tracker": "dapper-s"},
        ],
        ids=["nrh", "seed", "cap", "attack", "tracker"],
    )
    def test_classic_inputs_miss(self, warmups, change):
        _run(requests=50)
        _run(requests=50, **change)
        assert len(warmups) == 2

    @pytest.mark.parametrize(
        "plan",
        [
            (
                CoreAssignment(role="attack", name="refresh", hammer_rate=0.5),
                CoreAssignment(role="workload", name="453.povray"),
            ),
            (
                CoreAssignment(role="workload", name="453.povray"),
                CoreAssignment(role="attack", name="refresh"),
            ),
        ],
        ids=["hammer_rate", "core_id"],
    )
    def test_plan_inputs_miss(self, warmups, plan):
        _run(attack=None, core_plan=self.BASE_PLAN, requests=50)
        _run(attack=None, core_plan=plan, requests=50)
        assert len(warmups) == 2

    def test_benign_workload_is_not_part_of_the_key(self, warmups):
        _run(workload="453.povray", requests=50)
        _run(workload="429.mcf", requests=50)
        assert len(warmups) == 1


class TestBypass:
    def test_tracker_object_bypasses_memo(self, warmups):
        for _ in range(2):
            run_workload(
                config=CONFIG,
                tracker=create_tracker("hydra", CONFIG),
                workload="453.povray",
                attack="rcc-conflict",
                requests_per_core=50,
                attack_warmup_activations=WARMUP,
                llc_warmup_accesses=LLC_WARMUP,
            )
        assert len(warmups) == 2
        assert experiment._TRACKER_WARM_CACHE == {}

    def test_none_tracker_bypasses_memo(self, warmups):
        _run("none", requests=50)
        _run("none", requests=50)
        assert len(warmups) == 2
        assert experiment._TRACKER_WARM_CACHE == {}

    def test_memo_is_bounded_fifo(self, warmups, monkeypatch):
        monkeypatch.setattr(experiment, "_TRACKER_WARM_CACHE_MAX", 2)
        for seed in (1, 2, 3):
            _run(seed=seed, warmup=2_000, requests=50)
        assert [key[4] for key in experiment._TRACKER_WARM_CACHE] == [2, 3]


def test_dapper_h_row_streaming_snapshot_stays_small(warmups):
    """The Figure 10 snapshot leaves DAPPER-H's derived caches out.

    With ``_row_memo``, the RGC group/member memos and the rank pair caches
    pickled, this snapshot is ~9 MB and every restore costs about a second.
    """
    _run(
        "dapper-h",
        "row-streaming",
        config=baseline_config(),
        warmup=150_000,
        requests=50,
    )
    (snapshot,) = experiment._TRACKER_WARM_CACHE.values()
    assert len(snapshot) < 1_000_000
