"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``); the line before it carries the details: sample
counts, the serve_mixed ladder, the schedule hash and the check results.
Exit code 0 means every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics and their units, as listed in BENCHMARK.json
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "freshness_p50_ms": "ms",
    "freshness_p99_ms": "ms",
}
#: end-to-end metrics printed on the details line only: host-bound
#: throughput and read tails, the offered rate on open-loop workloads,
#: bimodal medians, data-bound quality, or defined on one workload (see
#: perfbench/README.md)
DETAIL_UNITS = {
    "update_events_per_s": "events/s",
    "replay_events_per_s": "events/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "hit_rate_at_10": "fraction",
    "sustained_writes_per_s": "writes/s",
    "failed_frac": "fraction",
}


def _import_program() -> None:
    sys.path[:0] = [SRC, ROOT]
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("replay_bulk", "serve_mixed", "read_heavy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import layers, workloads
    from perfbench.spans import SpanLog

    work_root = os.path.join(ROOT, "perfbench", "_work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        run = workloads.run_once(args.workload, args.seed, args.seconds,
                                 os.path.join(work_dir, "plain"), None)
        e2e, details = workloads.e2e_metrics(run)
        failures = list(run["failures"])
        if args.trace:
            log = SpanLog()
            traced = workloads.run_once(args.workload, args.seed, args.seconds,
                                        os.path.join(work_dir, "traced"), log)
            failures += traced["failures"]
            metrics = layers.per_layer(traced, log, run["cpu"])
            units = layers.PER_LAYER_UNITS
            if set(metrics) != set(units):
                raise RuntimeError(f"per-layer metrics out of step: {set(metrics) ^ set(units)}")
            log.dump(
                os.path.join(ROOT, "perfbench", "_traces", f"{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "metrics": metrics},
            )
        else:
            metrics, units = e2e, E2E_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details["metrics"] = {name: {"value": e2e[name], "unit": unit}
                          for name, unit in {**E2E_UNITS, **DETAIL_UNITS}.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, **details}, default=str))
    missing = [name for name in units if metrics[name] is None]
    if missing:
        print(f"perfbench: too few samples for {missing}; run longer", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
