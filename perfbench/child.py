"""One workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
``@ready`` once the program is imported and the system built (the
launcher times launch -> ``@ready`` as set-up), then, unless only set-up
was asked for, ``@result <json>`` after the run and its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import WORKLOADS, peak_rss_mb  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--mode", choices=("setup", "measure", "baseline"),
                        default="measure",
                        help="setup: stop once set up; baseline: the "
                             "untraced half of a traced pair (no scaling "
                             "probe, no end-to-end metrics)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = json.loads((args.workdir / "manifest.json").read_text())
    recorder = None
    if args.trace:
        from perfbench.layers import Recorder

        recorder = Recorder()
    workload = WORKLOADS[args.workload](manifest, args.workdir, recorder)
    workload.setup()
    print("@ready", flush=True)
    if args.mode == "setup":
        workload.close()
        return 0

    workload.prepare()
    workload.run(args.seconds, args.passes)
    rss = peak_rss_mb(workload.pids())
    workload.close()
    document = {"work_seconds": statistics.median(workload.pass_walls),
                "passes": len(workload.pass_walls)}
    if recorder is not None:
        recorder.absorb(args.workdir / "layers")
        recorder.dump(args.workdir / "layers.json")
        document["traced"] = workload.traced()
    document["attempted"], document["failed"] = workload.check()
    if recorder is None:
        measure = args.mode == "measure"
        if measure and not workload.runs_ladder:
            workload.probe_ladder()
        metrics = workload.corrected(workload.metrics(exponents=measure))
        metrics["peak_rss_mb"] = rss
        document["metrics"] = metrics
        document["host_speed"] = workload.host_speed()
        document["observed"] = workload.observed()
    print("@result " + json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
