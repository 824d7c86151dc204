"""One campaign repetition in a fresh process.

Usage (from ``run.py``)::

    python3 perfbench/child.py '<json job>'

The job names the workload, seed, store directory, result file, the
parent's clock reading just before it spawned this process, and whether
to trace.  The process imports the program, builds the scenarios and
the runner, makes the one ``CampaignRunner.run`` call, checks every
verdict and writes a JSON result.  With ``"mode": "seed"`` it only runs
the scenarios whose relation snapshots seed the rehydrate store.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from pathlib import Path

# The benchmark's own modules import nothing of the program at import time.
import layers
import probe as probe_module
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the parallel
    # workers once the runner has joined them.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def main() -> int:
    job = json.loads(sys.argv[1])
    # Fresh-process guard: nothing of the program may be loaded yet.
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        print("child: the program was imported before the run", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    from repro.engine import CampaignRunner

    for module in probe_module.MODULES:
        importlib.import_module(module)

    workload = job["workload"]
    store = Path(job["store"])
    out = Path(job["out"])
    trace = bool(job.get("trace"))
    if job.get("mode") == "seed":
        report = CampaignRunner(store_path=store).run(workloads.alpha0_golden())
        ok = report.passed and all(
            outcome.snapshot.get(role, {}).get("status") == "saved"
            for outcome in report.outcomes
            for role in ("spec", "impl")
        )
        return 0 if ok else 4

    probe = None
    if trace:
        from repro import telemetry

        probe = probe_module.Probe(out.parent)
        probe.install()
        telemetry.enable(trace_path=None)

    if workload in workloads.FIXED and any(store.iterdir()):
        print(f"child: {workload} needs an empty store", file=sys.stderr)
        return 3
    scenarios = workloads.BUILDERS[workload](job["seed"])
    runner = CampaignRunner(store_path=store)
    workers = workloads.PARALLEL.get(workload)
    run_kwargs = {"parallel": True, "max_workers": workers} if workers else {}

    setup_s = time.monotonic() - job["spawned"]
    started = time.perf_counter()
    report = runner.run(scenarios, **run_kwargs)
    campaign_s = time.perf_counter() - started

    result = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "peak_rss_mb": _peak_rss_mb(),
        "store_mb": _store_bytes(store) / 1e6,
        "attempted": len(scenarios),
        "wrong": workloads.wrong_verdicts(workload, scenarios, report),
        "shape_errors": workloads.shape_errors(workload, report),
        "digests": {
            outcome.scenario: workloads.verdict_digest(outcome)
            for outcome in report.outcomes
        },
    }
    if probe is not None:
        events = list(telemetry.get_tracer().events)
        telemetry.disable()
        probe.uninstall()
        result["layers"] = layers.per_layer(probe, report, campaign_s, workers or 1, events)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
