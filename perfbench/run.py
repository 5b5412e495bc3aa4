"""End-to-end and per-layer benchmark of the repro system.

Run from the repository root::

    python3 perfbench/run.py --workload batch-corpus --seed 1 \\
        --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up time is the median
of several fresh-interpreter launches, and one more launch runs the
timed region.  ``--trace 1`` prints the per-layer metrics: one pass
runs untraced and one pass runs with every layer wrapped in spans; the
difference of their wall times is the tracing overhead.  Either way the
program's outputs are checked against references, and the last line of
stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  A human-readable copy goes to stderr.

Inputs are generated from ``--seed`` into ``.perfbench-work/`` at the
repository root.  See ``perfbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.inputs import generate  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    REFERENCE_PROBE_SECONDS, WORKLOADS, speed_probe)

WORK_DIRECTORY = ".perfbench-work"

#: Fresh-interpreter launches per run whose median is ``setup_s``.
SETUP_LAUNCHES = 5
#: Seconds a child interpreter may take before it is killed.
CHILD_TIMEOUT = 150.0

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "sustained_events_per_s": "1/s",
    "finding_p50_ms": "ms",
    "finding_p95_ms": "ms",
    "exp_race_prediction": "1",
    "exp_deadlock_prediction": "1",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: Per-layer metrics and their units (``--trace 1``).
PER_LAYER = {
    "proc.import_s": "s",
    "serve.spawn_s": "s",
    "trace.decode_s": "s",
    "trace.encode_s": "s",
    "trace.decode_calls_per_event": "ratio",
    "trace.index_s": "s",
    "stream.feed_self_s": "s",
    "stream.flush_calls": "count",
    "stream.flush_s": "s",
    "stream.checkpoint_calls": "count",
    "stream.checkpoint_s": "s",
    "stream.checkpoint_bytes": "B",
    "stream.buffered_events_max": "count",
    "analyses.race-prediction.self_s": "s",
    "analyses.deadlock-prediction.self_s": "s",
    "analyses.c11-races.self_s": "s",
    "analyses.tso-consistency.self_s": "s",
    "analyses.memory-bugs.self_s": "s",
    "analyses.use-after-free.self_s": "s",
    "analyses.batch_runs": "count",
    "core.s": "s",
    "core.insert_ops": "count",
    "core.query_ops": "count",
    "core.delete_ops": "count",
    "serve.ingest_s": "s",
    "serve.backpressure_waits": "count",
    "serve.worker_busy_ratio": "ratio",
    "gen.late_max_ms": "ms",
    "finding.samples": "count",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """A child run failed; no result may be printed."""


def launch(workload: str, workdir: Path, mode: str, seconds: float,
           trace: int = 0, passes: Optional[int] = None
           ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run ``child.py`` in a fresh interpreter; returns the seconds from
    launch to its ``@ready`` line and its result document."""
    command = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               "--workload", workload, "--workdir", str(workdir),
               "--mode", mode, "--seconds", str(seconds),
               "--trace", str(trace)]
    if passes is not None:
        command += ["--passes", str(passes)]
    began = time.perf_counter()
    # Own process group: a child that overruns is killed together with
    # any worker processes it forked.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(
        CHILD_TIMEOUT, lambda: os.killpg(process.pid, signal.SIGKILL))
    watchdog.start()
    ready = None
    document = None
    try:
        for line in process.stdout:
            if line.startswith("@ready") and ready is None:
                ready = time.perf_counter() - began
            elif line.startswith("@result "):
                document = json.loads(line[len("@result "):])
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0 or ready is None or (
            mode != "setup" and document is None):
        raise BenchmarkError(
            f"{workload} {mode} run failed (exit {process.returncode})")
    return ready, document


def measure(workload: str, workdir: Path, seconds: float
            ) -> Tuple[Dict[str, float], int, int]:
    """The end-to-end metrics of one run.  Set-up time is corrected for
    host speed like the child's figures, by probes taken between the
    launches, while no child runs."""
    readies, probes = [], []
    for _ in range(SETUP_LAUNCHES - 1):
        probes.append(speed_probe())
        readies.append(launch(workload, workdir, "setup", seconds)[0])
    probes.append(speed_probe())
    ready, document = launch(workload, workdir, "measure", seconds)
    readies.append(ready)
    metrics = dict(document["metrics"])
    metrics["setup_s"] = statistics.median(readies) * (
        REFERENCE_PROBE_SECONDS / statistics.median(probes))
    print(f"{workload:15s} {'(host speed, reference = 1)':36s} "
          f"{document['host_speed']:14.6g}", file=sys.stderr)
    attempted, failed = document["attempted"], document["failed"]
    metrics["success_rate"] = 1.0 - failed / attempted
    return metrics, attempted, failed


def layers(workload: str, workdir: Path, seconds: float
           ) -> Tuple[Dict[str, float], int, int]:
    """The per-layer metrics of one traced pass and its untraced twin."""
    _, baseline = launch(workload, workdir, "baseline", seconds, passes=1)
    _, traced = launch(workload, workdir, "measure", seconds, trace=1,
                       passes=1)
    metrics = dict(traced["traced"])
    metrics.update(baseline["observed"])
    metrics["trace.overhead_s"] = (traced["work_seconds"]
                                   - baseline["work_seconds"])
    return (metrics, baseline["attempted"] + traced["attempted"],
            baseline["failed"] + traced["failed"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repro source tree (src/repro)",
              file=sys.stderr)
        return 2
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / WORK_DIRECTORY / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORKLOADS[args.workload].compute_references(
            generate(args.seed, workdir), workdir)
        if args.trace:
            values, attempted, failed = layers(args.workload, workdir,
                                               args.seconds)
            units = PER_LAYER
        else:
            values, attempted, failed = measure(args.workload, workdir,
                                                args.seconds)
            units = END_TO_END
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for pattern in ("*.stc", "*.std.gz"):
            for path in workdir.glob(pattern):
                path.unlink()
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, entry in metrics.items():
        print(f"{args.workload:15s} {name:36s} {entry['value']:14.6g} "
              f"{entry['unit']}", file=sys.stderr)
    print(f"{args.workload:15s} {'(run wall time)':36s} "
          f"{time.perf_counter() - began:14.6g} s", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
