"""Span tracing of the simulator's layers, applied from outside the program.

The traced run wraps public class methods and module functions of each layer
*before* any simulator is built, so every call the default (batched) engine
makes through those names is timed.  Nothing inside ``src/`` changes:

* no :class:`repro.obs.Probe` is attached, so the batched drain keeps its
  inlined fast paths;
* none of the tracker hooks that ``MemoryController.__init__`` compares
  against the base class (:data:`CONTROLLER_HOOKS`) is ever wrapped, so the
  controller's hook-override flags -- and with them the hookless service
  path -- stay exactly as in an untraced run.

Each wrapped call records one span (label, start, end, parent span) in
compact in-memory arrays.  A call whose caller is a span of the same label
(``next_batch`` driving ``next_entry``, a tracker calling its base class) is
part of that span and records nothing of its own.  :func:`fold` turns spans
into per-label totals: a span's *self* time is its duration minus the part of
it that its child spans cover.

Pool workers inherit the wrappers through ``fork``.  Each worker folds its
spans after every task and writes its running totals to
``<spill_dir>/worker-<pid>.json``; :meth:`Tracer.totals` adds them to the
parent's own.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Tracker hooks whose override status ``MemoryController.__init__`` reads to
#: pick the hookless service path; wrapping one would flip that choice.
CONTROLLER_HOOKS = frozenset(
    {
        "note_request_source",
        "throttle_delay_ns",
        "completion_delay_ns",
        "activation_extension_ns",
    }
)


def fold(names, labels, starts, ends, parents) -> dict[str, list[float]]:
    """Per-label ``[calls, inclusive seconds, self seconds]`` of a span set.

    Span ``i`` has label ``names[labels[i]]``, runs from ``starts[i]`` to
    ``ends[i]`` and is a child of span ``parents[i]`` (``-1`` for a root).
    Its self time is its duration minus the union of its children's
    intervals, each clipped to the span itself, so overlapping or
    out-of-bounds children are never subtracted twice.
    """
    count = len(labels)
    order = range(count)
    if any(starts[i] < starts[i - 1] for i in range(1, count)):
        order = sorted(order, key=starts.__getitem__)
    covered = [0.0] * count
    covered_until = [float("-inf")] * count
    for i in order:
        parent = parents[i]
        if parent < 0:
            continue
        begin = max(starts[i], starts[parent], covered_until[parent])
        end = min(ends[i], ends[parent])
        if end > begin:
            covered[parent] += end - begin
            covered_until[parent] = end
    totals: dict[str, list[float]] = {}
    for i in range(count):
        duration = ends[i] - starts[i]
        entry = totals.setdefault(names[labels[i]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered[i]
    return totals


def merge_totals(into: dict[str, list[float]], other: dict[str, list[float]]) -> None:
    for label, values in other.items():
        entry = into.setdefault(label, [0, 0.0, 0.0])
        for k in range(3):
            entry[k] += values[k]


class Tracer:
    """Records spans of wrapped calls and folds them into per-label totals."""

    def __init__(self, spill_dir: str | os.PathLike | None = None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Parallel span arrays; wrappers hold references to these objects,
        # so they are only ever cleared in place.
        self.labels = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.folded: dict[str, list[float]] = {}
        self.spans = 0
        self.recording = True
        self.runners: list = []
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.pid = self.origin_pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording

    def label_id(self, label: str) -> int:
        found = self._ids.get(label)
        if found is None:
            found = self._ids[label] = len(self.names)
            self.names.append(label)
        return found

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, label: str, counter=None):
        """A wrapper of ``fn`` that records a ``label`` span per call.

        ``counter(tracer, args, result)``, when given, runs after each
        recorded call to add to the tracer's counters.
        """
        tracer = self
        lid = self.label_id(label)
        labels, starts, ends = self.labels, self.starts, self.ends
        parents, stack = self.parents, self.stack

        def traced(*args, **kwargs):
            if not tracer.recording or (stack and labels[stack[-1]] == lid):
                return fn(*args, **kwargs)
            index = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            starts[index] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(tracer, args, result)
            return result

        functools.update_wrapper(traced, fn)
        return traced

    def fold(self) -> None:
        """Fold the recorded spans into :attr:`folded` and drop them.

        Only valid while no span is open (the stack is empty)."""
        self.spans += len(self.labels)
        merge_totals(
            self.folded,
            fold(self.names, self.labels, self.starts, self.ends, self.parents),
        )
        for column in (self.labels, self.starts, self.ends, self.parents):
            del column[:]

    # ------------------------------------------------------------------ #
    # Pool workers

    def _worker_task(self, fn):
        """Wrap the pool task so each forked worker starts clean and spills
        its totals after every task."""
        tracer = self

        def task(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._become_worker()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.spill_dir is not None and tracer.pid != tracer.origin_pid:
                    tracer.fold()
                    tracer._spill()

        functools.update_wrapper(task, fn)
        return task

    def _become_worker(self) -> None:
        # A forked worker inherits the parent's open spans and totals.
        self.pid = os.getpid()
        self.stack.clear()
        for column in (self.labels, self.starts, self.ends, self.parents):
            del column[:]
        self.counters.clear()
        self.folded = {}
        self.spans = 0
        self.runners = []

    def _spill(self) -> None:
        path = self.spill_dir / f"worker-{self.pid}.json"
        temp = path.with_suffix(".tmp")
        temp.write_text(
            json.dumps(
                {"folded": self.folded, "counters": self.counters, "spans": self.spans}
            )
        )
        os.replace(temp, path)

    def totals(self) -> tuple[dict[str, list[float]], dict[str, int], int]:
        """``(per-label totals, counters, span count)`` of this process plus
        every worker that spilled into :attr:`spill_dir`."""
        self.fold()
        folded = {label: list(values) for label, values in self.folded.items()}
        counters = dict(self.counters)
        spans = self.spans
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("worker-*.json")):
                worker = json.loads(path.read_text())
                merge_totals(folded, worker["folded"])
                for name, value in worker["counters"].items():
                    counters[name] = counters.get(name, 0) + value
                spans += worker["spans"]
        return folded, counters, spans

    # ------------------------------------------------------------------ #
    # Installation

    def _patch(self, owner, name: str, replacement) -> None:
        if name in CONTROLLER_HOOKS:
            raise ValueError(f"refusing to wrap controller-inspected hook {name!r}")
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def wrap_method(self, cls, name: str, label: str, counter=None) -> None:
        self._patch(cls, name, self.wrap(cls.__dict__[name], label, counter))

    def wrap_function(self, module, name: str, label: str, counter=None) -> None:
        """Wrap a module function everywhere ``repro`` bound it by name."""
        original = getattr(module, name)
        traced = self.wrap(original, label, counter)
        for loaded_name, loaded in list(sys.modules.items()):
            if (
                loaded is not None
                and loaded_name.split(".")[0] == "repro"
                and loaded.__dict__.get(name) is original
            ):
                self._patch(loaded, name, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order).

        Wrappers that a module bound while tracing was installed stop
        recording and only pass calls through."""
        self.recording = False
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)


def _subclasses(cls) -> list[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


def _add(name: str, amount_of):
    def counter(tracer: Tracer, args, result) -> None:
        tracer.count(name, amount_of(args, result))

    return counter


def _count_response(tracer: Tracer, args, result) -> None:
    tracer.count("trackers.on_activation.calls")
    if not result.is_empty:
        tracer.count("trackers.on_activation.active")


def _register_runner(tracer: Tracer, init):
    def register(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.runners.append(self)

    functools.update_wrapper(register, init)
    return register


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.core.dapper_h  # noqa: F401  (registers the tracker class)
    import repro.core.dapper_s  # noqa: F401
    import repro.eval.figures as figures
    import repro.sim.experiment as experiment
    import repro.sim.sweep as sweep
    import repro.trackers.registry as registry
    from repro.attacks.base import AttackGenerator
    from repro.cpu.trace import WorkloadTraceGenerator
    from repro.cpu.tracefile import FileTraceGenerator
    from repro.crypto.llbc import LowLatencyBlockCipher
    from repro.dram.address import AddressMapper
    from repro.dram.dram_system import DRAMSystem
    from repro.mc.controller import MemoryController
    from repro.scenarios.catalog import ScenarioFamily
    from repro.sim.simulator import Simulator
    from repro.store.backend import SqliteStore
    from repro.trackers.base import RowHammerTracker

    for cls in (WorkloadTraceGenerator, FileTraceGenerator):
        tracer.wrap_method(cls, "next_batch", "cpu", _add("cpu.entries", lambda a, r: len(r[0])))
    for cls in _subclasses(AttackGenerator):
        if "next_batch" in cls.__dict__:
            tracer.wrap_method(
                cls, "next_batch", "attacks", _add("attacks.entries", lambda a, r: len(r[0]))
            )
        if "next_entry" in cls.__dict__:
            tracer.wrap_method(
                cls, "next_entry", "attacks", _add("attacks.entries", lambda a, r: 1)
            )
    tracer.wrap_method(
        AddressMapper, "decode_batch", "dram.address",
        _add("dram.address.decoded", lambda a, r: len(a[1])),
    )
    tracer.wrap_method(
        AddressMapper, "decode", "dram.address",
        _add("dram.address.decoded", lambda a, r: 1),
    )
    tracer.wrap_method(
        LowLatencyBlockCipher, "encrypt", "crypto",
        _add("crypto.encrypt.calls", lambda a, r: 1),
    )
    for cls in _subclasses(RowHammerTracker)[1:]:
        label = f"trackers.{cls.name}"
        if "on_activation" in cls.__dict__:
            tracer.wrap_method(cls, "on_activation", label, _count_response)
        if "on_refresh_window" in cls.__dict__:
            tracer.wrap_method(cls, "on_refresh_window", label)
    tracer.wrap_function(registry, "create_tracker", "trackers.create")
    tracer.wrap_method(
        MemoryController, "service_row", "mc",
        _add("mc.service_row.calls", lambda a, r: 1),
    )
    # ``service`` decodes and then calls ``service_row``; its own label keeps
    # that inner call a span of its own, so every service_row call counts.
    tracer.wrap_method(MemoryController, "service", "mc.service")
    for name in ("_apply_response", "_check_refresh_window"):
        tracer.wrap_method(MemoryController, name, "mc")
    tracer.wrap_method(
        DRAMSystem, "access_flat", "dram",
        _add("dram.access_flat.calls", lambda a, r: 1),
    )
    for name in ("access", "counter_access", "victim_refresh", "apply_blackout"):
        tracer.wrap_method(DRAMSystem, name, "dram")
    tracer.wrap_method(Simulator, "__init__", "sim.engine.init")
    tracer.wrap_method(Simulator, "run", "sim.engine.run")
    tracer.wrap_function(experiment, "run_workload", "sim.experiment")
    for name in ("warm_up_tracker", "warm_up_tracker_from_plan"):
        tracer.wrap_function(
            experiment, name, "sim.experiment.warmup",
            _add("sim.experiment.warmup_activations", lambda a, r: r),
        )
    for name in ("run", "ensure", "simulate"):
        tracer.wrap_method(sweep.SweepRunner, name, "sim.sweep")
    tracer._patch(
        sweep.SweepRunner, "__init__",
        _register_runner(tracer, sweep.SweepRunner.__dict__["__init__"]),
    )
    tracer.wrap_function(
        sweep, "_execute_spec", "sim.sweep.execute",
        _add("sim.sweep.simulations", lambda a, r: 1),
    )
    tracer._patch(
        sweep, "_execute_spec_timed",
        tracer._worker_task(sweep._execute_spec_timed),
    )
    tracer.wrap_method(SqliteStore, "put", "store.put", _add("store.put.calls", lambda a, r: 1))
    tracer.wrap_method(SqliteStore, "get", "store.get", _add("store.get.calls", lambda a, r: 1))
    tracer.wrap_method(ScenarioFamily, "expand", "scenarios.expand")
    tracer.wrap_function(figures, "figure1", "eval.figure1")
    tracer.wrap_function(figures, "figure10", "eval.figure10")
    return tracer
