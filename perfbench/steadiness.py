"""Run the benchmark over several seeds and report how steady it is.

For every end-to-end metric of each workload, prints the median over the
seeds and the spread (first-to-third quartile distance as a share of the
median) next to the metric's bound from ``BENCHMARK.json``, marked

* ``ok`` below a third of the bound, the margin aimed for;
* ``thin`` from a third of the bound up to the bound: accepted, with
  less margin against a slower phase of the host;
* ``WIDE`` above the bound: not accepted.

``setup_s`` is exempt: later runs only compare its median.  With
``--baseline``, the medians are also compared with those of an earlier
``--out`` file, and a metric whose median got worse by more than its
bound is marked ``WORSE``.  These are the rules a set of runs must pass
to accept the benchmark; the exit status is 1 when any metric is
``WIDE`` or ``WORSE``.
Run from the repository root, one run at a time so the runs do not
compete for the processors::

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out first.json
    python3 perfbench/steadiness.py --seeds 11 12 13 14 15 16 17 18 19 20 \\
        --out second.json --baseline first.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import spread  # noqa: E402


def run(workload: str, seed: int, seconds: int) -> Dict[str, float]:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    document = json.loads(completed.stdout.strip().splitlines()[-1])
    if not document["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs")
    return {name: entry["value"]
            for name, entry in document["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--out", type=Path,
                        help="also write every value here as JSON")
    parser.add_argument("--baseline", type=Path,
                        help="an earlier --out file to compare medians with")
    args = parser.parse_args()
    baseline = (json.loads(args.baseline.read_text())
                if args.baseline is not None else {})

    values: Dict[str, Dict[str, List[float]]] = {}
    steady = True
    for workload in args.workloads:
        runs = [run(workload, seed, spec["run_seconds"])
                for seed in args.seeds]
        values[workload] = {metric["name"]: [r[metric["name"]] for r in runs]
                            for metric in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            series = values[workload][metric["name"]]
            median = statistics.median(series)
            share = spread(series) if len(series) > 1 else 0.0
            if metric["name"] == "setup_s" or share < metric["bound"] / 3:
                mark = "ok"
            else:
                mark = "thin" if share <= metric["bound"] else "WIDE"
            ok = mark != "WIDE"
            line = (f"{workload:15s} {metric['name']:26s} "
                    f"median {median:12.5g} spread {share:7.4f} "
                    f"bound {metric['bound']:.2f} {mark}")
            earlier = baseline.get(workload, {}).get(metric["name"])
            if earlier:
                change = median / statistics.median(earlier) - 1.0
                if metric["better"] == "higher":
                    change = -change
                worse = change > metric["bound"]
                ok = ok and not worse
                line += (f"  worse by {change:+.4f} "
                         f"{'WORSE' if worse else 'ok'}")
            steady = steady and ok
            print(line)
    if args.out is not None:
        args.out.write_text(json.dumps(values, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
