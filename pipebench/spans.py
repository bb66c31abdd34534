"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of the monitor, engine, estimator,
service and snapshot layers.  Every call records a span — name, start, end,
parent span and thread — kept in memory and written out when the run ends.
A layer's self time is its spans' duration minus the time their child spans
cover.  Nothing under ``src/`` changes: the wrappers are installed on the
classes and modules at run time and removed again by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import json
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

#: The span whose time the named layers must account for.
ROOT = "monitor.observe"

#: Layers whose self times make up the root's time, in pipeline order.
INGEST_LAYERS = (
    "ingest.window",
    "ingest.encode",
    "ingest.kernel",
    "monitor.evaluate",
    "monitor.topk",
    "monitor.sliding",
    "monitor.merge",
    "monitor.refresh",
)
#: The two catch-all self times among :data:`INGEST_LAYERS`: whatever
#: ``WindowedEstimator.ingest`` and the evaluation do outside the wrapped
#: calls.  ``trace.coverage_specific`` leaves them out.
CATCH_ALL_LAYERS = ("ingest.window", "monitor.evaluate")
QUERY_OPS = ("spread", "batch_spread", "topk", "sliding")
#: Every span name a metric is reported for (``<name>.self_s`` / ``.calls``).
SPAN_METRICS = (
    *INGEST_LAYERS,
    "monitor.publish",
    *(f"service.op.{op}" for op in QUERY_OPS),
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, thread_name]`` per call.
        self.spans: list[list] = []
        self.topk_users_updated = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording --------------------------------------------------------------

    def _wrap(self, function: Callable, name: str | Callable[..., str]) -> Callable:
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [
                fixed if fixed is not None else name(*args, **kwargs),
                0.0,
                0.0,
                stack[-1] if stack else -1,
                threading.current_thread().name,
            ]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = function
        return wrapper

    def _patch_attr(self, owner: object, attr: str, name, hook=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        function = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if hook is not None:
            function = hook(function)
        wrapped = self._wrap(function, name)
        if isinstance(raw, classmethod):
            wrapped = classmethod(wrapped)
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        self._patches.append((owner, attr, raw, wrapped))

    def _patch_function(self, module: object, attr: str, name) -> None:
        """Wrap a module function everywhere it was imported by name."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name)
        for candidate in list(sys.modules.values()):
            if getattr(candidate, attr, None) is original:
                self._patches.append((candidate, attr, original, wrapped))

    # -- installation ----------------------------------------------------------

    def prepare(self) -> None:
        """Build every wrapper (once); :meth:`install` then only swaps them in."""
        if self._patches:
            return
        from repro.baselines.cse import CSE
        from repro.core.freers import FreeRS
        from repro.engine.encoding import EncodedBatch
        from repro.monitor import merge
        from repro.monitor.snapshot import SnapshotStore
        from repro.monitor.spreader import SpreaderMonitor
        from repro.monitor.topk import TopKTracker
        from repro.monitor.view import SlidingMergeCache
        from repro.monitor.window import WindowedEstimator
        from repro.service.server import EstimateService

        tracer = self

        def count_updates(function):
            def apply_updates(tracker, changed):
                tracer.topk_users_updated += len(changed)
                return function(tracker, changed)

            return apply_updates

        def count_refresh(function):
            def full_refresh(tracker, estimates):
                tracer.topk_users_updated += len(estimates)
                return function(tracker, estimates)

            return full_refresh

        def op_name(_service, request, *_args, **_kwargs) -> str:
            op = request.get("op") if isinstance(request, dict) else None
            return f"service.op.{op}"

        self._patch_attr(SpreaderMonitor, "observe", ROOT)
        self._patch_attr(SpreaderMonitor, "evaluate", "monitor.evaluate")
        self._patch_attr(SpreaderMonitor, "_evaluate_incremental", "monitor.evaluate")
        self._patch_attr(WindowedEstimator, "ingest", "ingest.window")
        self._patch_attr(EncodedBatch, "from_pairs", "ingest.encode")
        for kernel in (FreeRS, CSE):
            self._patch_attr(kernel, "update_encoded", "ingest.kernel")
        self._patch_attr(TopKTracker, "apply_updates", "monitor.topk", hook=count_updates)
        self._patch_attr(TopKTracker, "full_refresh", "monitor.topk", hook=count_refresh)
        self._patch_attr(SlidingMergeCache, "sliding_estimates", "monitor.sliding")
        self._patch_function(merge, "merged_copy", "monitor.merge")
        self._patch_function(merge, "merge_into", "monitor.merge")
        self._patch_function(merge, "refresh_estimates_from_state", "monitor.refresh")
        self._patch_attr(EstimateService, "refresh", "monitor.publish")
        self._patch_attr(EstimateService, "handle", op_name)
        self._patch_attr(SnapshotStore, "save", "monitor.snapshot.save")
        self._patch_attr(SnapshotStore, "restore", "monitor.snapshot.restore")

    def install(self) -> None:
        """Swap every wrapper in."""
        self.prepare()
        for owner, attr, _raw, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original back (in reverse, so shared names end original)."""
        for owner, attr, raw, _wrapped in reversed(self._patches):
            setattr(owner, attr, raw)

    # -- analysis --------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and call count.

        ``under_root_s`` is the part of the self time spent inside a
        top-level :data:`ROOT` span — the share that accounts for ingest.
        """
        totals: dict[str, dict[str, float]] = {}
        if not self.spans:
            return totals
        names = [span[0] for span in self.spans]
        start = np.array([span[1] for span in self.spans])
        end = np.array([span[2] for span in self.spans])
        parent = np.array([span[3] for span in self.spans], dtype=np.int64)
        duration = end - start
        child_time = np.zeros(len(self.spans))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], duration[has_parent])
        self_time = duration - child_time
        # Parents are recorded before their children, so one forward pass
        # finds every span's top-level ancestor.
        top = np.arange(len(self.spans))
        for index in np.flatnonzero(has_parent):
            top[index] = top[parent[index]]
        for index, name in enumerate(names):
            entry = totals.setdefault(
                name, {"total_s": 0.0, "self_s": 0.0, "under_root_s": 0.0, "calls": 0}
            )
            if parent[index] < 0 or names[parent[index]] != name:
                entry["total_s"] += float(duration[index])
            entry["self_s"] += float(self_time[index])
            if has_parent[index] and names[top[index]] == ROOT:
                entry["under_root_s"] += float(self_time[index])
            entry["calls"] += 1
        return totals

    def to_json(self) -> dict[str, object]:
        """Every span plus the side counters, JSON-ready."""
        return {
            "fields": ["name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "topk_users_updated": self.topk_users_updated,
        }

    def write(self, path: Path) -> None:
        """Write :meth:`to_json` to ``path``."""
        Path(path).write_text(json.dumps(self.to_json()), encoding="utf-8")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer readings (value, unit) from a finished trace."""
    totals = tracer.layer_totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_METRICS:
        entry = totals.get(name, {"self_s": 0.0, "calls": 0})
        metrics[f"{name}.self_s"] = (entry["self_s"], "s")
        metrics[f"{name}.calls"] = (float(entry["calls"]), "count")
    metrics["monitor.topk.users_updated"] = (float(tracer.topk_users_updated), "count")
    root = totals.get(ROOT, {"total_s": 0.0})["total_s"]
    under_root = {
        name: totals.get(name, {"under_root_s": 0.0})["under_root_s"] for name in INGEST_LAYERS
    }
    named = sum(under_root.values())
    specific = named - sum(under_root[name] for name in CATCH_ALL_LAYERS)
    metrics["trace.root_s"] = (root, "s")
    metrics["trace.coverage"] = (named / root if root else 0.0, "ratio")
    metrics["trace.coverage_specific"] = (specific / root if root else 0.0, "ratio")
    return metrics


def run_metrics(
    *,
    evaluations: tuple[int, int],
    restore_s: Sequence[float],
    save_s: Sequence[float],
    snapshot_bytes: Sequence[int],
    instruments: Iterable[dict],
    cycle_busy: dict[bool, list[float]],
) -> dict[str, tuple[float, str]]:
    """The traced run's readings that do not come from span self times.

    ``evaluations`` is (incremental, full); ``instruments`` a metrics
    registry snapshot, whose ``state.arena.*`` gauges are summed over every
    owner; ``cycle_busy`` each epoch's summed ``observe`` seconds, keyed by whether
    it was traced.
    """
    from pipebench.stats import epoch_rate

    arena = {"state.arena.bytes": 0.0, "state.arena.users": 0.0}
    for instrument in instruments:
        if instrument.get("name") in arena:
            arena[instrument["name"]] += float(instrument.get("value", 0.0))
    incremental, full = evaluations

    def median(values: Sequence[float]) -> float:
        return float(statistics.median(values)) if values else 0.0

    return {
        "monitor.incremental_share": (incremental / max(1, incremental + full), "ratio"),
        "monitor.snapshot.restore_s": (median(restore_s), "s"),
        "monitor.snapshot.save_s": (median(save_s), "s"),
        "monitor.snapshot.bytes": (median(snapshot_bytes), "bytes"),
        "state.arena.bytes": (arena["state.arena.bytes"], "bytes"),
        "state.arena.users": (arena["state.arena.users"], "count"),
        "trace.overhead": (epoch_rate(cycle_busy[False]) / epoch_rate(cycle_busy[True]) - 1.0, "ratio"),
    }
