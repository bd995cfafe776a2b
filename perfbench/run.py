"""Run one workload of the repository benchmark and print its result.

From the root of a checkout::

    python3 perfbench/run.py --workload label-sparse-4k --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer table instead (and writes a Chrome trace).  The metric
names and units are the ones ``BENCHMARK.json`` declares.  Human-readable
lines come first; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
only when every output check passed.  See ``perfbench/README.md`` for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _workloads():
    from label_workloads import Fig5Sweep, LabelSparse4k
    from serve_workload import ServeMixed
    from traffic_workload import TrafficCampaign

    return {
        w.name: w for w in (LabelSparse4k, Fig5Sweep, ServeMixed, TrafficCampaign)
    }


def declared_metrics(traced: bool) -> dict:
    """Metric name -> unit for one mode, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workloads = _workloads()
    if args.workload not in workloads:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(workloads)}",
            file=sys.stderr,
        )
        return 2

    from harness import run_workload

    workload = workloads[args.workload](args.seed, bool(args.trace))
    line = run_workload(workload, args.seconds, declared_metrics(bool(args.trace)))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
