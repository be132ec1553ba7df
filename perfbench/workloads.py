"""The benchmark's workloads, each a closed batch driven by one process.

Every workload has the same life cycle inside one fresh process
(:mod:`perfbench.rep`):

``setup()``
    Everything before the first timed simulation: scenario expansion and
    warehouse creation.
``cold()``
    The timed phase: the workload's simulations on the default engine, with
    every in-process memo empty.
``collect()``
    Untimed: the cold phase's simulations as ``(key, spec, payload)``
    triples, plus the workload's own outputs (figure rows) and the
    normalized benign performance of each measured scenario.
``warm(specs, store_path)``
    The timed warm phase: replay every cold simulation from a warehouse at a
    100% hit rate (plus ``campaign_report`` for the campaign).  Set-up-only
    processes replay the first repetition's warehouse too, so warm samples
    come from every process of a run.

The request counts below set each workload's size; see ``README.md`` for why
each workload exists and which layers it should move.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import repro.sim.sweep as sweep
from repro.eval import figures
from repro.scenarios import family_by_name
from repro.scenarios.families import default_workloads
from repro.sim.experiment import run_workload
from repro.sim.simulator import SimulationResult
from repro.sim.sweep import ResultCache, SweepRunner
from repro.store import SqliteStore
from repro.store.campaign import Campaign, campaign_report

NRH = 500


def scenario_seed(seed: int) -> int:
    """The simulation seed a benchmark seed stands for (odd, 31 bits)."""
    return random.Random(seed).getrandbits(31) | 1


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Capture:
    """Records every simulation the sweep layer executes in this process.

    ``repro.sim.sweep._execute_spec`` is the single function every serial
    simulation runs through; the capture keeps its ``(spec, payload)`` pairs
    so results hidden inside figure functions can be counted and checked.
    It runs once per simulation, outside the simulator, and is installed in
    traced and untraced runs alike.
    """

    def __init__(self):
        self.runs: list[tuple] = []

    def install(self) -> "Capture":
        original = sweep._execute_spec

        def capture(spec):
            payload = original(spec)
            self.runs.append((spec, payload))
            return payload

        sweep._execute_spec = functools.update_wrapper(capture, original)
        return self

    def triples(self) -> list[tuple[str, object, dict]]:
        return [(spec.cache_key(), spec, payload) for spec, payload in self.runs]


def scalar_payload(spec) -> dict:
    """Re-simulate ``spec`` on the scalar reference engine."""
    result = run_workload(
        config=spec.resolved_config(),
        tracker=spec.tracker,
        workload=spec.workload if spec.core_plan is not None
        else spec.resolved_workload(),
        attack=spec.attack,
        requests_per_core=spec.requests_per_core,
        seed=spec.resolved_seed(),
        enable_auditor=spec.enable_auditor,
        attack_warmup_activations=spec.attack_warmup_activations,
        llc_warmup_accesses=spec.llc_warmup_accesses,
        core_plan=spec.core_plan,
        engine="scalar",
    )
    return result.to_dict()


def fill_store(path: Path, triples) -> None:
    """Write cold results into a fresh warehouse (for the warm replay)."""
    store = SqliteStore(path)
    try:
        cache = ResultCache(store=store)
        for key, spec, payload in triples:
            cache.store(key, spec, SimulationResult.from_dict(payload))
    finally:
        store.close()


class Workload:
    """Shared plumbing; subclasses define ``setup``/``cold``/``collect``."""

    name = ""
    #: Measured scenarios; each also asks for one insecure baseline.
    scenarios = 0
    #: Least warm replays per process; exactly this many in a traced run, so
    #: its counts repeat.
    WARM_REPEATS = 31

    def __init__(self, seed: int, workdir: Path, capture: Capture):
        self.seed = seed
        self.workdir = Path(workdir)
        self.capture = capture
        self.outputs = None

    def store_path(self) -> Path:
        return self.workdir / "warehouse.sqlite"

    def prepare_warm(self, triples) -> None:
        fill_store(self.store_path(), triples)

    def warm(self, specs, store_path: Path) -> SweepRunner:
        store = SqliteStore(store_path)
        try:
            runner = SweepRunner(store=store)
            runner.ensure(specs)
        finally:
            store.close()
        return runner

    def shape_checks(self) -> list[tuple[str, bool]]:
        return []

    def scalar_case(self, triples) -> tuple:
        """The cold ``(key, spec, payload)`` whose spec matches
        :attr:`SCALAR_CASE`, re-simulated on the scalar reference engine."""
        return next(
            case for case in triples
            if all(getattr(case[1], k) == v for k, v in self.SCALAR_CASE.items())
        )


class PerfAttack(Workload):
    """Figures 1 and 10: tailored Perf-Attacks and DAPPER-H under attack."""

    name = "perf-attack"
    REQUESTS = 2_000
    SCALAR_CASE = {"tracker": "hydra", "workload_name": "429.mcf"}

    def setup(self) -> None:
        self.workloads = default_workloads(1)[:2]
        self.scenarios = 5 * len(self.workloads) + 2 * len(self.workloads)

    def cold(self) -> None:
        self.figure1 = figures.figure1(
            workloads=self.workloads, requests_per_core=self.REQUESTS, nrh=NRH
        )
        self.figure10 = figures.figure10(
            workloads=self.workloads, requests_per_core=self.REQUESTS, nrh=NRH
        )

    def collect(self):
        self.outputs = {"figure1": self.figure1.rows, "figure10": self.figure10.rows}
        normalized = [
            row["normalized_performance"]
            for row in self.figure1.rows
            if row["suite"] != "All"
        ] + [
            row["normalized_performance"]
            for row in self.figure10.rows
            if row["workload"] != "average"
        ]
        return self.capture.triples(), normalized

    def shape_checks(self) -> list[tuple[str, bool]]:
        # The assertions of benchmarks/test_fig01_motivation.py and
        # benchmarks/test_fig10_dapper_h_attacks.py.
        overall = {
            row["series"]: row["normalized_performance"]
            for row in self.figure1.filter(suite="All")
        }
        tailored = ("hydra", "start", "abacus", "comet")
        average = self.figure10.value(
            "normalized_performance", workload="average", attack="both"
        )
        return [
            (
                "figure1: every tailored Perf-Attack beats cache thrashing",
                all(overall[t] < overall["cache-thrashing"] for t in tailored),
            ),
            (
                "figure1: some tailored Perf-Attack halves performance",
                min(overall[t] for t in tailored) < 0.5,
            ),
            ("figure10: DAPPER-H average above 0.93", average > 0.93),
            (
                "figure10: every DAPPER-H row above 0.85",
                all(
                    row["normalized_performance"] > 0.85
                    for row in self.figure10.rows
                    if row["workload"] != "average"
                ),
            ),
        ]



class BenignMix(Workload):
    """Figure 11's shape: trackers on benign applications, no attacker."""

    name = "benign-mix"
    REQUESTS = 3_000
    SCALAR_CASE = {"tracker": "dapper-h", "workload_name": "429.mcf"}
    TRACKERS = ["none", "graphene", "hydra", "dapper-h"]

    def setup(self) -> None:
        self.specs = family_by_name("cross-product").expand(
            {
                "trackers": self.TRACKERS,
                "attacks": ["none"],
                "workloads": default_workloads(1) + ["453.povray"],
                "requests_per_core": self.REQUESTS,
                "nrh": NRH,
                "seed": scenario_seed(self.seed),
            }
        )
        self.scenarios = len(self.specs)

    def cold(self) -> None:
        self.outcomes = SweepRunner().run(self.specs)

    def collect(self):
        return self.capture.triples(), [o.normalized for o in self.outcomes]



class CampaignDrain(Workload):
    """A 96-scenario campaign drained into a fresh warehouse by 2 workers."""

    name = "campaign"
    REQUESTS = 500
    WARM_REPEATS = 9
    SCALAR_CASE = {"tracker": "dapper-h", "attack": "refresh", "workload_name": "429.mcf"}
    JOBS = 2
    TRACKERS = ["none", "graphene", "hydra", "comet", "abacus", "dapper-h"]
    CAMPAIGN = "perfbench"

    def setup(self) -> None:
        self.specs = [
            spec
            for nrh in (500, 1000)
            for spec in family_by_name("cross-product").expand(
                {
                    "trackers": self.TRACKERS,
                    "attacks": ["none", "refresh"],
                    "workloads": ["429.mcf", "470.lbm", "403.gcc", "453.povray"],
                    "requests_per_core": self.REQUESTS,
                    "nrh": nrh,
                    "seed": scenario_seed(self.seed),
                    "geometry": "reduced",
                }
            )
        ]
        self.scenarios = len(self.specs)
        self.store = SqliteStore(self.store_path())

    def cold(self) -> None:
        Campaign(self.CAMPAIGN, self.specs, self.store, jobs=self.JOBS).run()

    def collect(self):
        plan: dict[str, object] = {}
        for spec in self.specs:
            plan.setdefault(spec.cache_key(), spec)
            baseline = spec.baseline_spec()
            plan.setdefault(baseline.cache_key(), baseline)
        payloads = {key: self.store.get(key).result for key in plan}
        self.store.close()
        normalized = [
            spec.normalized_against(
                SimulationResult.from_dict(payloads[spec.cache_key()]),
                SimulationResult.from_dict(
                    payloads[spec.baseline_spec().cache_key()]
                ),
            )
            for spec in self.specs
        ]
        self.normalized = normalized
        return [(key, spec, payloads[key]) for key, spec in plan.items()], normalized

    def prepare_warm(self, triples) -> None:
        pass  # the cold drain filled the warehouse

    def warm(self, specs, store_path: Path) -> SweepRunner:
        # The campaign's warm path is the suite itself, replayed through
        # SweepRunner.run (baselines resolved from the warehouse), then the
        # campaign report.
        store = SqliteStore(store_path)
        try:
            runner = SweepRunner(store=store)
            runner.run(self.specs)
            self.report = campaign_report(store, self.CAMPAIGN)
        finally:
            store.close()
        return runner

    def shape_checks(self) -> list[tuple[str, bool]]:
        rows = self.report["rows"]
        return [
            (
                "campaign report has every scenario",
                len(rows) == len(self.specs) and not self.report["incomplete_entries"],
            ),
            (
                "campaign report matches the cold results",
                [row["normalized_performance"] for row in rows] == self.normalized,
            ),
        ]


WORKLOADS = {
    cls.name: cls for cls in (PerfAttack, BenignMix, CampaignDrain)
}
