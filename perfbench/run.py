"""The repository benchmark: campaign workloads through ``CampaignRunner``.

Usage, from the repository root::

    python3 perfbench/run.py --workload alpha0-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each repetition is one campaign in a fresh process (``child.py``), run
closed loop: the next starts when the previous has ended.  Repetitions
continue while the next one is expected to end within ``--seconds``
(at least two are always made).  Metrics are medians over the
repetitions.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions (at least one
and two) and prints the per-layer metrics, taken by the probe in
``probe.py`` from outside the program plus the program's own telemetry
tracer, with ``telemetry.overhead_ratio`` = traced / untraced
``campaign_s``.  On the serial workloads it also checks that every
count-type metric repeats exactly between the traced repetitions.

Every verdict is checked (see ``workloads.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Scratch files live under ``.perfbench/``
in the repository root; the last traced repetition's spans are kept in
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

#: Hard cap on one repetition; a whole run must end within 180 s.
CHILD_TIMEOUT_S = 150.0
MIN_PLAIN = 2
MIN_TRACE_PLAIN = 1
MIN_TRACED = 2


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _source_digest() -> str:
    """Content hash of the program source and the workload definitions.

    Keys the rehydrate seed store, so it is rebuilt whenever either
    could change what the seeding run stores.
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + [HERE / "workloads.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _spawn(job: dict) -> None:
    env = dict(os.environ)
    # The kernel backend is part of the program under test: run its
    # default, whatever the calling shell selected.
    env.pop("REPRO_KERNEL_BACKEND", None)
    job["spawned"] = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Take the parallel workers down with the child.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if code != 0:
        raise RuntimeError(f"{job['workload']} repetition exited with code {code}")


def _seed_store() -> Path:
    """Relation snapshots of the golden Alpha0 runs, without verdict records.

    Preparation, not measurement: built once per program version and
    copied into each repetition's store before the process starts.
    """
    seeded = WORK / f"seed-{_source_digest()}"
    if seeded.is_dir():
        return seeded
    staging = WORK / f"seed-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    (staging / "store").mkdir(parents=True)
    _spawn(
        {
            "mode": "seed",
            "workload": "alpha0-rehydrate",
            "seed": 0,
            "store": str(staging / "store"),
            "out": str(staging / "result.json"),
        }
    )
    shutil.rmtree(staging / "store" / "results")
    try:
        os.replace(staging / "store", seeded)
    except OSError:
        # Another benchmark process in this checkout seeded it first.
        if not seeded.is_dir():
            raise
    shutil.rmtree(staging)
    return seeded


def _repetition(workload: str, seed: int, traced: bool, rep_dir: Path, seeded) -> dict:
    store = rep_dir / "store"
    if seeded is not None:
        shutil.copytree(seeded, store)
    else:
        store.mkdir(parents=True)
    out = rep_dir / "result.json"
    _spawn(
        {
            "workload": workload,
            "seed": seed,
            "store": str(store),
            "out": str(out),
            "trace": traced,
        }
    )
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object (raises on shape errors)."""
    spec = _spec()
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.monotonic()
    seeded = _seed_store() if workload == "alpha0-rehydrate" else None
    plain: List[dict] = []
    traced: List[dict] = []
    durations: List[float] = []
    try:
        clock = time.monotonic()
        while True:
            if trace:
                short = len(plain) < MIN_TRACE_PLAIN or len(traced) < MIN_TRACED
                kind_traced = len(traced) <= len(plain)
            else:
                short = len(plain) < MIN_PLAIN
                kind_traced = False
            if not short and clock - started + statistics.median(durations) > seconds:
                break
            rep_dir = run_dir / f"rep{len(durations)}"
            rep_dir.mkdir()
            result = _repetition(workload, seed, kind_traced, rep_dir, seeded)
            if result["shape_errors"]:
                raise RuntimeError(
                    f"{workload} lost its shape: " + "; ".join(result["shape_errors"])
                )
            (traced if kind_traced else plain).append(result)
            now = time.monotonic()
            durations.append(now - clock)
            clock = now
            if kind_traced:
                trace_dir = WORK / "traces"
                trace_dir.mkdir(exist_ok=True)
                shutil.copyfile(
                    rep_dir / "spans.jsonl", trace_dir / f"{workload}-seed{seed}.jsonl"
                )
            shutil.rmtree(rep_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    everything = plain + traced
    wrong = [reason for result in everything for reason in result["wrong"]]
    attempted = sum(result["attempted"] for result in everything)
    for reason in wrong:
        print(f"WRONG {workload}: {reason}")
    print(f"{workload}: {len(plain)} untraced and {len(traced)} traced repetitions")
    print(f"failed_ratio {len(wrong) / attempted:.6g} fraction")

    def median(results: List[dict], name: str) -> float:
        return statistics.median(result[name] for result in results)

    metrics: Dict[str, dict] = {}
    if not trace:
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": median(plain, entry["name"]), "unit": entry["unit"]}
    else:
        values = {
            name: statistics.median(result["layers"][name] for result in traced)
            for name in traced[0]["layers"]
        }
        values["telemetry.overhead_ratio"] = median(traced, "campaign_s") / median(
            plain, "campaign_s"
        )
        if workload not in workloads.PARALLEL:
            for name in layers.DETERMINISTIC_COUNTS:
                seen = [result["layers"][name] for result in traced]
                if len(set(seen)) > 1:
                    print(f"NONDETERMINISTIC {workload} {name}: {seen}")
        self_total = sum(values[f"{layer}.self_s"] for layer in probe.LAYER_NAMES)
        for layer in probe.LAYER_NAMES:
            share = values[f"{layer}.self_s"] / self_total if self_total else 0.0
            print(f"share {layer} {share:.4f}")
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(wrong),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    else:
        results = {
            name: run_workload(name, args.seed, seconds, bool(args.trace))
            for name in workloads.WORKLOADS
        }
        result = {
            "correct": all(item["correct"] for item in results.values()),
            "attempted": sum(item["attempted"] for item in results.values()),
            "failed": sum(item["failed"] for item in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, item in results.items()
                for metric, value in item["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
