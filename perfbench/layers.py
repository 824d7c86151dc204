"""Per-layer metrics of one traced campaign.

Times and call counts come from the probe's wrappers (outermost calls
into each layer's public functions); sizes, cache and store counters
come from the public fields of the ``CampaignReport``; ``span.*`` self
times come from the program's own telemetry tracer.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import probe as probe_module

#: The program's own telemetry spans reported as ``span.<name>_s``.
PROGRAM_SPANS = (
    "beta.extract_role",
    "beta.spec",
    "beta.impl",
    "beta.compare",
    "events.spec",
    "events.impl",
    "events.compare",
)

#: Count-type metrics that must repeat exactly between runs of the same
#: code on a serial workload.
DETERMINISTIC_COUNTS = (
    "bdd.ite_calls",
    "bdd.support_calls",
    "bdd.compose_calls",
    "bdd.quantify_calls",
    "relational.extract_calls",
    "relational.advance_calls",
    "bdd.nodes_allocated",
    "bdd.peak_live_nodes",
    "bdd.cache_hits",
    "bdd.cache_misses",
    "store.reads",
    "store.writes",
    "store.bytes_read",
    "store.bytes_written",
)


def _pool_stats(report) -> List[dict]:
    per_worker = report.pool.get("per_worker")
    if per_worker is not None:
        return [entry["pool"] for entry in per_worker]
    return [report.pool]


def _rate(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(probe, report, campaign_s: float, workers: int, events) -> Dict[str, float]:
    span_dir: Path = probe.span_dir
    worker_records = [
        json.loads(path.read_text()) for path in sorted(span_dir.glob("spans-w*.json"))
    ]
    if workers > 1 and len(worker_records) < workers:
        raise RuntimeError(
            f"{len(worker_records)} worker span files for {workers} workers"
        )
    merged = probe_module.merge(probe.record(), worker_records)
    with open(span_dir / "spans.jsonl", "w", encoding="utf-8") as handle:
        for span in merged["spans"]:
            handle.write(json.dumps(span, sort_keys=True) + "\n")
        for event in events:
            handle.write(json.dumps({"program": event}, sort_keys=True) + "\n")

    stats = merged["stats"]
    metrics: Dict[str, float] = {}

    def timed(key: str, seconds: str, calls: str = "") -> None:
        metrics[seconds] = stats[key][1]
        if calls:
            metrics[calls] = stats[key][0]

    # bdd
    for key in ("bdd.ite", "bdd.support", "bdd.compose", "bdd.quantify"):
        timed(key, f"{key}_s", f"{key}_calls")
    metrics["bdd.gc_runs"] = stats["bdd.gc"][0]
    timed("bdd.snapshot", "bdd.snapshot_s")
    timed("bdd.restore", "bdd.restore_s")
    metrics["bdd.restored_nodes"] = merged["restored_nodes"]
    pools = _pool_stats(report)
    metrics["bdd.nodes_allocated"] = sum(pool["arena"]["allocated_total"] for pool in pools)
    metrics["bdd.peak_live_nodes"] = max(pool["arena"]["peak_live"] for pool in pools)
    hits = sum(pool["cache"]["hits"] for pool in pools)
    misses = sum(pool["cache"]["misses"] for pool in pools)
    metrics["bdd.cache_hits"] = hits
    metrics["bdd.cache_misses"] = misses
    metrics["bdd.cache_hit_rate"] = _rate(hits, misses)

    # relational
    timed("relational.extract", "relational.extract_s", "relational.extract_calls")
    roles = [
        outcome.extraction_cache.get(role)
        for outcome in report.outcomes
        for role in ("spec", "impl")
        if outcome.extraction_cache.get(role) is not None
    ]
    metrics["relational.session_hit_rate"] = (
        sum(status == "hit" for status in roles) / len(roles) if roles else 0.0
    )
    timed("relational.stepper_init", "relational.stepper_init_s")
    timed("relational.advance", "relational.advance_s", "relational.advance_calls")

    # engine.executor
    timed("executor.scenario", "executor.scenario_s")
    timed("executor.beta", "executor.beta_s")
    timed("executor.events", "executor.events_s")
    timed("executor.superscalar", "executor.superscalar_s")
    fallback = [o for o in report.outcomes if o.backend == "relational+fallback"]
    metrics["executor.fallback_scenarios"] = len(fallback)
    metrics["executor.fallback_s"] = sum(outcome.seconds for outcome in fallback)
    for name, seconds in probe_module.span_self_times(events, PROGRAM_SPANS).items():
        metrics[f"span.{name}_s"] = seconds

    # engine.store
    timed("store.read", "store.read_s", "store.reads")
    timed("store.write", "store.write_s", "store.writes")
    families = [report.store.get(name, {}) for name in ("results", "snapshots")]
    metrics["store.bytes_read"] = sum(family.get("bytes_read", 0) for family in families)
    metrics["store.bytes_written"] = sum(family.get("bytes_written", 0) for family in families)
    metrics["store.result_hit_rate"] = families[0].get("hit_rate", 0.0)
    metrics["store.snapshot_hit_rate"] = families[1].get("hit_rate", 0.0)

    # engine.pool
    timed("pool.acquire", "pool.acquire_s")
    metrics["pool.managers"] = sum(pool["managers"] for pool in pools)
    metrics["pool.reuses"] = sum(pool["reuses"] for pool in pools)

    # engine.runner: busy time is the scenario time of each worker (the
    # one main process when serial); the busiest worker sets campaign_s.
    busy = merged["busy"]
    metrics["runner.overhead_s"] = campaign_s - max(busy)
    metrics["runner.worker_utilisation"] = sum(busy) / (workers * campaign_s)
    metrics["runner.memo_hits"] = report.memo_hits
    metrics["runner.retries"] = report.resilience.get("retries", 0)
    metrics["runner.respawns"] = report.resilience.get("workers", {}).get("respawned", 0)

    # campaigns
    timed("campaigns.generate", "campaigns.generate_s")

    # Self time per layer (wall time minus the wrapped calls nested in it).
    for layer in probe_module.LAYER_NAMES:
        metrics[f"{layer}.self_s"] = sum(
            stats[key][2] for key, owner in probe_module.LAYERS.items() if owner == layer
        )
    return metrics
