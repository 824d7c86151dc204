"""Outside-in tracing probe for the benchmark's traced runs.

The probe never edits the program.  It replaces public functions of the
``repro`` layers with wrappers that time and count calls, keeps spans in
memory and derives per-layer self time from them:

* a wrapped call is counted only when it is the *outermost* call of its
  key (``apply_nand`` running inside ``conjoin`` is part of that
  ``conjoin``), so counts and times never double-book;
* the self time of a key is its wall time minus the wall time of the
  wrapped calls nested in it, and a layer's self time is the sum over
  its keys;
* every non-BDD key also records a span (name, start, end, parent id,
  scenario id, worker); the high-frequency BDD operations are
  aggregated only, their time showing up as child time of the
  enclosing span.

Forked parallel workers inherit the wrappers.  The probe wraps the
runner's worker entry point so each worker starts from empty counters
and writes its own span file when it exits; :func:`merge` folds the
files back into one record.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

#: ``key -> layer``.  The key is the metric stem (``bdd.ite`` gives
#: ``bdd.ite_s`` / ``bdd.ite_calls``).
LAYERS = {
    "bdd.ite": "bdd",
    "bdd.support": "bdd",
    "bdd.compose": "bdd",
    "bdd.quantify": "bdd",
    "bdd.gc": "bdd",
    "bdd.snapshot": "bdd",
    "bdd.restore": "bdd",
    "relational.extract": "relational",
    "relational.stepper_init": "relational",
    "relational.advance": "relational",
    "executor.scenario": "executor",
    "executor.beta": "executor",
    "executor.events": "executor",
    "executor.superscalar": "executor",
    "store.read": "store",
    "store.write": "store",
    "pool.acquire": "pool",
    "runner.run": "runner",
    "campaigns.generate": "campaigns",
}

LAYER_NAMES = ("bdd", "relational", "executor", "store", "pool", "runner", "campaigns")

#: Modules holding the wrapped functions.  Every repetition imports them
#: before the timed run, traced or not, so the program's own lazy
#: imports count as set-up in both and do not skew the overhead ratio.
MODULES = (
    "repro.bdd.manager",
    "repro.campaigns",
    "repro.engine.executor",
    "repro.engine.pool",
    "repro.engine.runner",
    "repro.engine.store",
    "repro.relational.beta",
)

#: Keys aggregated without spans (called up to millions of times).
_UNSPANNED = frozenset({"bdd.ite", "bdd.support", "bdd.compose", "bdd.quantify"})

_BDD_METHODS = {
    "bdd.ite": (
        "ite", "apply_not", "apply_and", "apply_or", "apply_xor", "apply_xnor",
        "apply_nand", "apply_nor", "apply_implies", "conjoin", "disjoin",
    ),
    "bdd.support": ("support",),
    "bdd.compose": ("compose", "restrict", "cofactor", "rename"),
    "bdd.quantify": ("exists", "forall", "and_exists"),
    "bdd.gc": ("collect",),
    "bdd.snapshot": ("snapshot",),
    "bdd.restore": ("restore",),
}


class Probe:
    """Wrappers, counters and spans of one traced process."""

    def __init__(self, span_dir: Path) -> None:
        self.span_dir = span_dir
        self.worker = "main"
        self.stats: Dict[str, List[float]] = {key: [0, 0.0, 0.0] for key in LAYERS}
        self.active: Dict[str, bool] = {key: False for key in LAYERS}
        self.stack: List[list] = []
        self.spans: List[dict] = []
        self.restored_nodes = 0
        self.scenario: Optional[str] = None
        self._next_span = 1
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public entry points of every layer."""
        manager, campaigns, executor, pool, runner, store, beta = (
            importlib.import_module(name) for name in MODULES
        )
        BDDManager = manager.BDDManager

        for key, methods in _BDD_METHODS.items():
            for name in methods:
                self._patch(BDDManager, name, key)
        self._patch(beta, "cached_extract_steppers", "relational.extract")
        self._patch(beta.MachineStepper, "__init__", "relational.stepper_init")
        self._patch(beta.MachineStepper, "advance", "relational.advance")
        self._patch(runner, "execute_scenario", "executor.scenario")
        self._patch(executor, "run_beta", "executor.beta")
        self._patch(executor, "run_events", "executor.events")
        self._patch(executor, "run_superscalar", "executor.superscalar")
        for name in ("load_result", "load_snapshot"):
            self._patch(store.ResultStore, name, "store.read")
        for name in ("save_result", "save_snapshot"):
            self._patch(store.ResultStore, name, "store.write")
        for name in ("acquire", "private_manager"):
            self._patch(pool.ManagerPool, name, "pool.acquire")
        self._patch(runner.CampaignRunner, "run", "runner.run")
        self._patch(campaigns, "generate_scenarios", "campaigns.generate")
        self._patch_worker(runner)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, key: str) -> None:
        original = getattr(owner, name)
        setattr(owner, name, self._timed(original, key, name))
        self._patches.append((owner, name, original))

    def _timed(self, original, key: str, name: str):
        stats = self.stats[key]
        active = self.active
        stack = self.stack
        perf = time.perf_counter
        spanned = key not in _UNSPANNED
        is_scenario = key == "executor.scenario"
        is_restore = key == "bdd.restore"
        probe = self

        def wrapper(*args, **kwargs):
            if active[key]:
                return original(*args, **kwargs)
            active[key] = True
            parent = stack[-1] if stack else None
            span_id = parent[1] if parent is not None else None
            parent_span = span_id
            if spanned:
                span_id = probe._next_span
                probe._next_span += 1
            frame = [0.0, span_id]
            stack.append(frame)
            if is_scenario:
                outer_scenario = probe.scenario
                probe.scenario = (kwargs.get("scenario") or args[0]).name
            start = perf()
            try:
                result = original(*args, **kwargs)
                if is_restore:
                    payload = kwargs.get("payload") or args[1]
                    probe.restored_nodes += len(payload["levels"])
                return result
            finally:
                end = perf()
                elapsed = end - start
                stack.pop()
                active[key] = False
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                if spanned:
                    probe.spans.append(
                        {
                            "id": span_id,
                            "parent": parent_span,
                            "worker": probe.worker,
                            "name": f"{key}:{name}",
                            "start": start,
                            "end": end,
                            "scenario": probe.scenario,
                        }
                    )
                if is_scenario:
                    probe.scenario = outer_scenario

        wrapper.__wrapped__ = original
        return wrapper

    def _patch_worker(self, runner) -> None:
        """Give each forked affinity worker fresh counters and a span file."""
        original = runner._affinity_worker
        probe = self

        def worker_entry(worker_id, *args, **kwargs):
            probe._reset(f"w{worker_id}")
            try:
                return original(worker_id, *args, **kwargs)
            finally:
                probe.dump(probe.span_dir / f"spans-w{worker_id}.json")

        runner._affinity_worker = worker_entry
        self._patches.append((runner, "_affinity_worker", original))

    def _reset(self, worker: str) -> None:
        # Cleared in place: the wrappers hold references to these objects.
        self.worker = worker
        self.stack.clear()
        self.spans.clear()
        for key in LAYERS:
            self.active[key] = False
            self.stats[key][:] = [0, 0.0, 0.0]
        self.restored_nodes = 0
        self.scenario = None

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def record(self) -> dict:
        return {
            "worker": self.worker,
            "stats": {key: list(value) for key, value in self.stats.items()},
            "restored_nodes": self.restored_nodes,
            "spans": list(self.spans),
        }

    def dump(self, path: Path) -> None:
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.record()))
        os.replace(tmp, path)


def _union_length(intervals: List[tuple]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
        reach = max(reach, end)
    return total


def merge(main: dict, workers: List[dict]) -> dict:
    """Fold the worker records into the main one.

    Counts and times add up over processes.  In a parallel campaign the
    main process runs no scenario itself, so the runner's self time is
    re-derived as the part of ``CampaignRunner.run`` that no worker's
    top-level span covers (the clock is system-wide, so worker spans
    and the main span share one time line).
    """
    stats = {key: list(value) for key, value in main["stats"].items()}
    restored = main["restored_nodes"]
    spans = list(main["spans"])
    busy = []
    for record in workers:
        for key, (calls, total, self_s) in record["stats"].items():
            stats[key][0] += calls
            stats[key][1] += total
            stats[key][2] += self_s
        restored += record["restored_nodes"]
        spans.extend(record["spans"])
        busy.append(
            sum(
                span["end"] - span["start"]
                for span in record["spans"]
                if span["parent"] is None and span["name"].startswith("executor.scenario")
            )
        )
    if workers:
        runs = [
            span for span in main["spans"]
            if span["name"].startswith("runner.run") and span["parent"] is None
        ]
        covered = 0.0
        for run in runs:
            inside = [
                (max(span["start"], run["start"]), min(span["end"], run["end"]))
                for record in workers
                for span in record["spans"]
                if span["parent"] is None
                and span["end"] > run["start"]
                and span["start"] < run["end"]
            ]
            covered += _union_length(inside)
        stats["runner.run"][2] = stats["runner.run"][1] - covered
    else:
        busy.append(stats["executor.scenario"][1])
    return {"stats": stats, "restored_nodes": restored, "spans": spans, "busy": busy}


def span_self_times(events: List[dict], names) -> Dict[str, float]:
    """Self time of the program's own telemetry spans, summed per name."""
    children: Dict[tuple, float] = {}
    for event in events:
        if event.get("type") == "span" and event.get("parent") is not None:
            parent = (event.get("worker"), event["parent"])
            children[parent] = children.get(parent, 0.0) + event["seconds"]
    totals = {name: 0.0 for name in names}
    for event in events:
        if event.get("type") == "span" and event.get("name") in totals:
            own = children.get((event.get("worker"), event["id"]), 0.0)
            totals[event["name"]] += event["seconds"] - own
    return totals
