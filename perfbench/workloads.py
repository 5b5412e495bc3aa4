"""The benchmark's three workloads, driven through public entry points.

* ``batch-corpus`` -- closed loop, one ``Session.run(AnalyzeConfig)`` job
  at a time over ``.stc`` traces: the analyses and the partial-order
  kernel do nearly all the work.
* ``watch-replay`` -- closed loop of inline replays (``run_serve`` with
  ``workers=0``, the path multi-source ``repro watch`` takes) over the
  ``.std.gz`` tenant feeds: decode, the stream engine and checkpoints.
* ``serve-openloop`` -- the same feeds, pre-rendered as STD lines, sent
  by one generator thread on a fixed schedule into a 2-worker
  ``Supervisor`` with telemetry on, over a ladder of offered rates.

Each workload runs in a fresh interpreter (see ``child.py``): ``setup``
imports the program and builds the system, ``run`` is the timed region,
``close`` tears the system down, and ``check``/``metrics`` run after the
timed region.
"""

from __future__ import annotations

import gzip
import importlib
import json
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.inputs import LADDER_MULTIPLES

#: Analyses of the streaming tenants.
STREAM_ANALYSES = ("use-after-free", "memory-bugs")
#: Flush interval and checkpoint interval of every tenant, in events.
FLUSH_EVERY = 250
CHECKPOINT_EVERY = 500

SERVE_WORKERS = 2
#: Offered rates of the serve-openloop ladder, events/s, lowest first.
#: The lowest is the nominal rate the latency percentiles are taken at.
OFFERED_RATES = (1000, 2000, 40000)
#: Feed sets the top rung sends (the lower rungs send one).
TOP_RUNG_SETS = 3
#: p95 ingest->finding latency a rung must meet to count as sustained.
P95_LIMIT_MS = 600.0
#: Seconds of ``--seconds`` that buy one ladder: the open loop runs a fixed
#: number of ladders, so its work does not depend on how fast it went.
LADDER_SECONDS = 10.0

#: Ladder traces per rung in the scaling probe of the streaming workloads.
PROBE_TRACES = 6

#: Every analysis a workload runs (each has a per-layer self time).
ANALYSES = ("race-prediction", "deadlock-prediction", "c11-races",
            "tso-consistency", "memory-bugs", "use-after-free")

Arrival = Tuple[str, int, float]

#: File in the work directory holding the expected findings.
REFERENCES = "references.json"

#: Iterations of the host-speed probe, and the seconds it took on the
#: host the bounds were set on (a 2-core VM at 2.1 GHz): the scale of the
#: host-speed-corrected figures.
SPEED_PROBE_ITERATIONS = 60000
REFERENCE_PROBE_SECONDS = 0.0065


def speed_probe() -> float:
    """Seconds of a fixed pure-integer loop that shares no code with the
    program.  On a shared host the speed a process gets drifts by tens of
    percent from one minute to the next; this loop's time follows that
    drift and nothing the program does."""
    began = time.perf_counter()
    x = 1
    for _ in range(SPEED_PROBE_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return time.perf_counter() - began


def peak_rss_mb(pids: Sequence[int] = ()) -> float:
    """Sum of the peak resident sets of this process and ``pids``."""
    total_kb = 0
    for pid in ("self", *pids):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
                break
    if total_kb == 0:  # no procfs: this process only
        total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return total_kb / 1024.0


def findings_text(result) -> List[str]:
    return [str(finding) for finding in result.findings]


def job_key(job: Dict[str, Any]) -> str:
    return f"{job['analysis']}@{job['path']}"


def write_references(directory: Path, references: Dict[str, Any]) -> None:
    (directory / REFERENCES).write_text(json.dumps(references),
                                        encoding="utf-8")


class Workload:
    """Shared life cycle; subclasses fill in the pass and the metrics."""

    name = ""
    #: Whether the timed region runs the scaling ladder itself.
    runs_ladder = False
    #: What the workload's entry points import.
    imports: Tuple[str, ...] = ("repro.api",)
    #: End-to-end figures that :meth:`corrected` scales by the host speed.
    corrected_times: Tuple[str, ...] = ("finding_p50_ms", "finding_p95_ms")
    corrected_rates: Tuple[str, ...] = ("events_per_s",
                                        "sustained_events_per_s")

    def __init__(self, manifest: Dict[str, Any], workdir: Path,
                 recorder=None) -> None:
        self.manifest = manifest
        self.workdir = workdir
        self.recorder = recorder
        self.import_seconds = 0.0
        self.pass_walls: List[float] = []
        #: Trace events handed to the program in each pass.
        self.pass_events: List[int] = []
        #: Seconds of every execution of every batch job, by job key.
        self.job_seconds: Dict[str, List[float]] = {}
        #: Ingest->finding latencies of the end-to-end percentiles, ms, in
        #: groups: one per replay on watch-replay, a single one elsewhere.
        self.latency_groups: List[List[float]] = []
        #: Host-speed probe times, taken while the program is idle.
        self.speed_samples: List[float] = []
        self.session = None
        self._references: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    # Set-up and the timed region
    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        start = time.perf_counter()
        for module in self.imports:
            importlib.import_module(module)
        self.import_seconds = time.perf_counter() - start
        if self.recorder is not None:
            from perfbench.layers import install

            install(self.recorder, self.workdir / "layers")
        from repro.api import Session

        self.session = Session()
        self.build()

    def build(self) -> None:
        """Construct the system under test (part of set-up time)."""

    def prepare(self) -> None:
        """Load inputs the program is handed ready-made (untimed, after
        set-up)."""

    def run(self, seconds: float, max_passes: Optional[int]) -> None:
        """The timed region: whole passes until the next one would end
        after ``seconds`` (at least one pass)."""
        start = time.perf_counter()
        while True:
            self.sample_speed()
            if self.recorder is not None:
                self.recorder.request = f"pass-{len(self.pass_walls)}"
            began = time.perf_counter()
            self.run_pass(len(self.pass_walls))
            self.pass_walls.append(time.perf_counter() - began)
            self.after_pass()
            if max_passes is not None and len(self.pass_walls) >= max_passes:
                return
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.pass_walls) > seconds:
                return

    def run_pass(self, number: int) -> None:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Bookkeeping between passes, outside the timed passes."""

    def sample_speed(self) -> None:
        """Probe the host's speed; called only while the program is idle,
        so that the program's own load cannot slow the probe."""
        self.speed_samples.append(speed_probe())

    def host_speed(self) -> float:
        """This run's host speed relative to the reference host: the
        reference probe time over the median probe time of the run."""
        return REFERENCE_PROBE_SECONDS / statistics.median(self.speed_samples)

    def corrected(self, metrics: Dict[str, float]) -> Dict[str, float]:
        """The end-to-end figures scaled to the reference host's speed:
        latencies times the host speed, rates divided by it.  Scaling
        exponents, memory and success rate do not depend on it."""
        speed = self.host_speed()
        metrics = dict(metrics)
        for name in self.corrected_times:
            metrics[name] *= speed
        for name in self.corrected_rates:
            metrics[name] /= speed
        return metrics

    def feed_sets(self) -> int:
        """How many sets of tenant feeds the inputs hold."""
        return 1 + max(feed["set"] for feed in self.manifest["feeds"])

    def feed_set(self, number: int) -> List[Dict[str, Any]]:
        """The tenant feeds of pass ``number``: the sets in turn."""
        return [feed for feed in self.manifest["feeds"]
                if feed["set"] == number % self.feed_sets()]

    def pids(self) -> Sequence[int]:
        """Worker processes whose memory counts towards peak RSS."""
        return ()

    def close(self) -> None:
        """Tear the system down (after the timed region)."""

    # ------------------------------------------------------------------ #
    # Batch jobs (the batch-corpus workload, and the scaling probe)
    # ------------------------------------------------------------------ #
    def analyze(self, job: Dict[str, Any]):
        """One ``repro analyze`` job on the analysis's default backend;
        its time is recorded under the job's key."""
        from repro.api import AnalyzeConfig

        config = AnalyzeConfig(analysis=job["analysis"], trace=job["path"])
        began = time.perf_counter()
        try:
            return self.session.run(config).raw
        finally:
            self.job_seconds.setdefault(job_key(job), []).append(
                time.perf_counter() - began)

    def probe_ladder(self) -> None:
        """Run the scaling-ladder jobs of the first ``PROBE_TRACES`` traces
        once.  Workloads that do not run the ladder themselves report its
        exponents from this probe, so that every workload reports every
        end-to-end metric."""
        for job in self.manifest["ladder"]:
            if job["draw"] < PROBE_TRACES:
                self.analyze(job)

    def exponents(self) -> Dict[str, float]:
        """Least-squares log-log exponent of time against events, per
        ladder analysis.  A rung's time is the sum over its traces of
        each job's median time."""
        seconds: Dict[Tuple[str, int], float] = {}
        events: Dict[Tuple[str, int], int] = {}
        for job in self.manifest["ladder"]:
            if job_key(job) not in self.job_seconds:
                continue  # not in the probe
            key = (job["analysis"], job["multiple"])
            seconds[key] = seconds.get(key, 0.0) + statistics.median(
                self.job_seconds[job_key(job)])
            events[key] = events.get(key, 0) + job["events"]
        analyses = sorted({analysis for analysis, _ in seconds})
        return {f"exp_{analysis.replace('-', '_')}": stats.loglog_slope(
                    [events[(analysis, m)] for m in LADDER_MULTIPLES],
                    [seconds[(analysis, m)] for m in LADDER_MULTIPLES])
                for analysis in analyses}

    # ------------------------------------------------------------------ #
    # Per-layer figures
    # ------------------------------------------------------------------ #
    def observed(self) -> Dict[str, float]:
        """Per-layer figures the program's telemetry or the generator
        measure themselves; taken from an untraced run."""
        return {"serve.backpressure_waits": 0.0,
                "serve.worker_busy_ratio": 0.0,
                "gen.late_max_ms": 0.0,
                "finding.samples": float(sum(
                    len(group) for group in self.latency_groups))}

    def traced(self) -> Dict[str, float]:
        """Per-layer figures from the spans of a traced run of one pass."""
        recorder = self.recorder
        figures = {
            "proc.import_s": self.import_seconds,
            "serve.spawn_s": recorder.total_seconds("serve.spawn"),
            "trace.decode_s": (recorder.self_seconds("trace.decode")
                               + recorder.self_seconds("trace.read")),
            "trace.encode_s": recorder.self_seconds("trace.encode"),
            "trace.decode_calls_per_event":
                recorder.calls("trace.decode.line") / sum(self.pass_events),
            "trace.index_s": recorder.self_seconds("trace.index"),
            "stream.feed_self_s": recorder.self_seconds("stream.feed"),
            "stream.flush_calls": recorder.calls("stream.flush"),
            "stream.flush_s": recorder.total_seconds("stream.flush"),
            "stream.checkpoint_calls": recorder.calls("stream.checkpoint"),
            "stream.checkpoint_s":
                recorder.total_seconds("stream.checkpoint"),
            "core.s": recorder.self_seconds("core"),
            "serve.ingest_s": recorder.self_seconds("serve.ingest"),
        }
        for name in ("stream.checkpoint_bytes", "analyses.batch_runs",
                     "core.insert_ops", "core.query_ops", "core.delete_ops"):
            figures[name] = recorder.counters.get(name, 0.0)
        figures["stream.buffered_events_max"] = recorder.maxima.get(
            "stream.buffered_events", 0.0)
        for name in ANALYSES:
            figures[f"analyses.{name}.self_s"] = recorder.self_seconds(
                f"analysis.{name}")
        return figures

    # ------------------------------------------------------------------ #
    # Checks
    # ------------------------------------------------------------------ #
    @classmethod
    def compute_references(cls, manifest: Dict[str, Any],
                           directory: Path) -> None:
        """Write the findings the outputs are checked against, before the
        run: each feed under ``Analysis.run`` on the analysis's default
        backend (stream = batch, serve = watch)."""
        from repro.analyses.common.base import Analysis
        from repro.trace import read_trace

        feeds: Dict[str, Dict[str, List[str]]] = {}
        for feed in manifest["feeds"]:
            trace = read_trace(feed["path"])
            feeds[feed["tenant"]] = {}
            for analysis in STREAM_ANALYSES:
                analysis_cls = Analysis.by_name(analysis)
                feeds[feed["tenant"]][analysis] = findings_text(
                    analysis_cls(analysis_cls.default_backend()).run(trace))
        write_references(directory, {"feeds": feeds})

    def references(self) -> Dict[str, Any]:
        """The expected findings, computed by :func:`compute_references`
        before the run."""
        if self._references is None:
            self._references = json.loads(
                (self.workdir / REFERENCES).read_text(encoding="utf-8"))
        return self._references

    @staticmethod
    def summary_failed(summary: Optional[Dict[str, Any]],
                       expected: Dict[str, List[str]]) -> bool:
        return (summary is None or "errors" in summary
                or summary.get("final") != expected)


class BatchCorpus(Workload):
    """Closed loop over every batch job, one at a time."""

    name = "batch-corpus"
    runs_ladder = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One round per ladder draw, the single-trace jobs spread over the
        # rounds: time and events then accrue evenly through a pass, so the
        # pass-layout latency percentiles follow the whole pass rather than
        # the place of one kind of job in it.
        ladder, singles = self.manifest["ladder"], self.manifest["singles"]
        rounds = 1 + max(job["draw"] for job in ladder)
        self.jobs = [job for draw in range(rounds)
                     for job in [job for job in ladder
                                 if job["draw"] == draw]
                     + singles[draw::rounds]]
        #: (job, findings text or None when it raised) of every execution.
        self.outputs: List[Tuple[Dict[str, Any], Optional[List[str]]]] = []

    def prepare(self) -> None:
        """Warm-up: the first execution of an analysis in a process pays
        for lazy imports and for growing the heap, up to a third of its
        time.  One execution of the first draw's ladder jobs and of every
        single-trace job is run and forgotten before timing."""
        for job in self.manifest["ladder"] + self.manifest["singles"]:
            if job["draw"] == 0:
                self.analyze(job)
        self.job_seconds.clear()
        if self.recorder is not None:
            self.recorder.reset()

    def run_pass(self, number: int) -> None:
        from repro.errors import ReproError

        for job in self.jobs:
            self.sample_speed()
            try:
                found = findings_text(self.analyze(job))
            except ReproError:
                found = None
            self.outputs.append((job, found))
        self.pass_events.append(sum(job["events"] for job in self.jobs))

    @classmethod
    def compute_references(cls, manifest: Dict[str, Any],
                           directory: Path) -> None:
        """Each job's findings on the exact ``vc`` backend (the ``repro
        compare`` oracle)."""
        from repro.analyses.common.base import Analysis
        from repro.trace import read_trace

        jobs = {}
        for job in manifest["ladder"] + manifest["singles"]:
            analysis_cls = Analysis.by_name(job["analysis"])
            jobs[job_key(job)] = findings_text(
                analysis_cls("vc").run(read_trace(job["path"])))
        write_references(directory, {"jobs": jobs})

    def check(self) -> Tuple[int, int]:
        """Findings must equal the same analysis on the exact ``vc``
        backend (the ``repro compare`` oracle)."""
        oracle = self.references()["jobs"]
        failed = sum(1 for job, found in self.outputs
                     if found != oracle[job_key(job)])
        return len(self.outputs), failed

    def metrics(self, exponents: bool = True) -> Dict[str, float]:
        medians = {key: statistics.median(samples)
                   for key, samples in self.job_seconds.items()}
        events = sum(job["events"] for job in self.jobs)
        throughput = events / sum(medians[job_key(job)] for job in self.jobs)
        # The corpus is submitted at the start of a pass and analysed one
        # job at a time; the verdict on every event of a trace, finding or
        # not, is out when its job returns.  Latency is taken per event
        # position, not per finding: how many findings a generated trace
        # holds is a property of the draw, and weighting by it would move
        # the percentiles by whole jobs from seed to seed.  The pass is
        # laid out from each job's median time, so that one slow
        # execution does not shift every event after it.
        ready = 0.0
        latencies: List[float] = []
        for job in self.jobs:
            ready += medians[job_key(job)]
            latencies += [1000.0 * ready] * job["events"]
        self.latency_groups = [latencies]
        metrics = {"events_per_s": throughput,
                   # A closed loop offers exactly what it completes.
                   "sustained_events_per_s": throughput}
        metrics.update(latency_metrics(self.latency_groups))
        if exponents:
            metrics.update(self.exponents())
        return metrics


def latency_metrics(groups: Sequence[Sequence[float]]) -> Dict[str, float]:
    """The p50 and p95 of each group of latencies, median over the groups,
    so that one slow pass moves the figures less."""
    return {f"finding_p{q}_ms": statistics.median(
                stats.percentile(group, q).value for group in groups)
            for q in (50, 95)}


class WatchReplay(Workload):
    """Closed loop of inline (``workers=0``) replays of the tenant feeds,
    with flushes and per-tenant checkpoints."""

    name = "watch-replay"
    imports = ("repro.api", "repro.serve.service")

    def build(self) -> None:
        from repro.serve.service import run_serve

        self.run_serve = run_serve
        self.checkpoints = self.workdir / "checkpoints"
        self.attempted = self.failed = 0

    def run_pass(self, number: int) -> None:
        feeds = self.feed_set(number)
        ingested: Dict[str, List[float]] = {}
        arrivals: List[Arrival] = []

        def on_started(service) -> None:
            # Stamp when each event is handed to the service; inline
            # findings surface inside the ingest call of the event that
            # triggered the flush.
            ingest = service.ingest_event

            def stamped(tenant: str, line: str) -> int:
                ingested.setdefault(tenant, []).append(time.perf_counter())
                return ingest(tenant, line)

            service.ingest_event = stamped

        def on_finding(item) -> None:
            arrivals.append((item.tenant, item.position,
                             time.perf_counter()))

        outcome = self.run_serve(
            STREAM_ANALYSES, sources=[feed["path"] for feed in feeds],
            workers=0, flush_every=FLUSH_EVERY,
            checkpoint_dir=str(self.checkpoints / f"pass-{number}"),
            checkpoint_every=CHECKPOINT_EVERY,
            on_finding=on_finding, on_started=on_started)
        self.pass_events.append(sum(feed["events"] for feed in feeds))
        self.last = (feeds, outcome, arrivals, ingested)

    def after_pass(self) -> None:
        """Collect the replay's latencies and compare each tenant's final
        findings with the reference, so that outcomes are not kept across
        replays."""
        from repro.serve.frontdoor import tenant_for_source

        feeds, outcome, arrivals, ingested = self.last
        self.last = None
        self.latency_groups.append(
            [1000.0 * latency
             for latency in stats.due_latencies(arrivals, ingested)])
        taken: List[str] = []
        for feed in feeds:
            # The tenant id the replay derives from the source name.
            tenant = tenant_for_source(Path(feed["path"]).stem, taken)
            taken.append(tenant)
            self.attempted += feed["events"]
            if outcome.errors or self.summary_failed(
                    outcome.summaries.get(tenant),
                    self.references()["feeds"][feed["tenant"]]):
                self.failed += feed["events"]

    def check(self) -> Tuple[int, int]:
        return self.attempted, self.failed

    def metrics(self, exponents: bool = True) -> Dict[str, float]:
        # Events of every feed set replayed over the median replay time of
        # each set, so that one slow replay moves the figure less.
        walls: Dict[int, List[float]] = {}
        events: Dict[int, int] = {}
        for number, (wall, count) in enumerate(zip(self.pass_walls,
                                                   self.pass_events)):
            walls.setdefault(number % self.feed_sets(), []).append(wall)
            events[number % self.feed_sets()] = count
        throughput = sum(events.values()) / sum(
            statistics.median(samples) for samples in walls.values())
        metrics = {"events_per_s": throughput,
                   # A closed loop offers exactly what it completes.
                   "sustained_events_per_s": throughput}
        metrics.update(latency_metrics(self.latency_groups))
        if exponents:
            metrics.update(self.exponents())
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.checkpoints, ignore_errors=True)


def feed_lines(path: str) -> List[str]:
    """The event lines of an STD feed file, as the client would send
    them (comments and blank lines dropped, nothing parsed)."""
    with gzip.open(path, "rt", encoding="utf-8") as stream:
        return [line.rstrip("\n") for line in stream
                if line.strip() and not line.lstrip().startswith("#")]


class ServeOpenLoop(Workload):
    """Open loop: one generator thread sends the pre-rendered feeds on a
    fixed schedule into a 2-worker supervisor, once per offered rate."""

    name = "serve-openloop"
    imports = ("repro.api", "repro.serve.supervisor", "repro.obs")
    # Not corrected: the supervisor, two workers and the generator share
    # both cores, and a probe in one idle process does not predict their
    # speed under that load.  Scaled by it, the open-loop figures spread
    # more over ten seeds, not less.
    corrected_times = corrected_rates = ()

    def build(self) -> None:
        from repro.obs import metrics as obs_metrics
        from repro.serve.shard import ShardOptions
        from repro.serve.supervisor import Supervisor

        # Telemetry on, as with `repro serve --metrics`: instruments bind
        # at construction, so the registry goes in first.
        self.registry = obs_metrics.MetricsRegistry()
        obs_metrics.set_registry(self.registry)
        self.root_span = self.registry.span("serve")
        self.root_span.__enter__()
        self.arrivals: List[Arrival] = []
        self.checkpoints = self.workdir / "checkpoints"
        self.supervisor = Supervisor(
            ShardOptions(analyses=STREAM_ANALYSES,
                         flush_every=FLUSH_EVERY,
                         checkpoint_dir=str(self.checkpoints),
                         checkpoint_every=CHECKPOINT_EVERY),
            workers=SERVE_WORKERS,
            on_finding=lambda item: self.arrivals.append(
                (item.tenant, item.position, time.perf_counter())))
        self.supervisor.start()
        self.stopped = False

    def prepare(self) -> None:
        from repro.serve.routing import HashRing

        # The supervisor's routing, to pick tenant ids (see tenant_id).
        self.ring = HashRing(SERVE_WORKERS)
        self.lines = {feed["tenant"]: feed_lines(feed["path"])
                      for feed in self.manifest["feeds"]}
        #: Per rung: rate, tenants, due/send times, rejected events.
        self.rungs: List[Dict[str, Any]] = []

    def run(self, seconds: float, max_passes: Optional[int]) -> None:
        passes = max_passes or max(1, round(seconds / LADDER_SECONDS))
        super().run(float("inf"), passes)

    def run_pass(self, number: int) -> None:
        feeds = [(feed["tenant"], self.lines[feed["tenant"]])
                 for feed in self.feed_set(number)]
        # The saturating top rung sends several feed sets, so that the
        # capacity it measures is averaged over more events.
        top = [(feed["tenant"], self.lines[feed["tenant"]])
               for offset in range(TOP_RUNG_SETS)
               for feed in self.feed_set(number + offset)]
        for rate in OFFERED_RATES:
            self.rungs.append(self.run_rung(
                number, rate, top if rate == OFFERED_RATES[-1] else feeds))
        self.pass_events.append(sum(
            len(rung["due"]) for rung in self.rungs[-len(OFFERED_RATES):]))

    def run_rung(self, number: int, rate: float,
                 feeds: List[Tuple[str, List[str]]]) -> Dict[str, Any]:
        """Send every feed at ``rate`` in total under fresh tenant ids,
        ending each tenant after its last event, and wait until all have
        reported.

        Each tenant sends at ``rate / tenants``.  Tenant ``i`` starts ``i``
        flush intervals (counted in all tenants' events) after tenant 0,
        so the tenants reach their flush points in turn rather than all
        at once, as independent clients would.
        """
        from repro.errors import ProtocolError

        supervisor = self.supervisor
        schedule = sorted(
            ((position * len(feeds) + index * FLUSH_EVERY) / rate, index,
             position)
            for index, (_, lines) in enumerate(feeds)
            for position in range(len(lines)))
        tenants = [self.tenant_id(f"p{number}r{int(rate)}-{tenant}",
                                  index % SERVE_WORKERS)
                   for index, (tenant, _) in enumerate(feeds)]
        due = [0.0] * len(schedule)
        sent = [0.0] * len(schedule)
        tenant_due: Dict[str, List[float]] = {tenant: [] for tenant in tenants}
        rejected = [0]

        def generate() -> None:
            start = time.perf_counter()
            for slot, (offset, index, position) in enumerate(schedule):
                due[slot] = start + offset
                tenant_due[tenants[index]].append(due[slot])
                now = time.perf_counter()
                if now < due[slot]:
                    time.sleep(due[slot] - now)
                    now = time.perf_counter()
                sent[slot] = now
                lines = feeds[index][1]
                try:
                    supervisor.ingest_event(tenants[index], lines[position])
                except ProtocolError:
                    rejected[0] += 1
                if position == len(lines) - 1:
                    supervisor.end_tenant(tenants[index])

        generator = threading.Thread(target=generate, name="generator")
        generator.start()
        generator.join()
        supervisor.drain()
        return {"rate": rate, "tenants": tenants,
                "feeds": [tenant for tenant, _ in feeds],
                "due": due, "sent": sent,
                "tenant_due": tenant_due, "rejected": rejected[0],
                "drained": time.perf_counter()}

    def tenant_id(self, name: str, worker: int) -> str:
        """``name`` with the smallest numeric suffix that the supervisor's
        hash ring routes to ``worker``.  In stagger order the tenants
        alternate between the workers, so every rung loads both alike;
        left to the ring, a handful of tenants often splits unevenly (four
        of them 3/1), and which rungs drew such a split would decide the
        measured capacity."""
        suffix = 0
        while self.ring.route(f"{name}.{suffix}") != worker:
            suffix += 1
        return f"{name}.{suffix}"

    def pids(self) -> Sequence[int]:
        return self.supervisor.worker_pids

    def close(self) -> None:
        if not self.stopped:
            self.stopped = True
            self.supervisor.stop()
            self.root_span.__exit__(None, None, None)
            from repro.obs import metrics as obs_metrics
            from repro.obs.sinks import JsonlSink

            JsonlSink(str(self.workdir / "metrics.jsonl")).emit(
                self.registry.snapshot())
            obs_metrics.set_registry(None)
            shutil.rmtree(self.checkpoints, ignore_errors=True)

    def check(self) -> Tuple[int, int]:
        references = self.references()["feeds"]
        summaries = self.supervisor.summaries
        errors = {tenant for tenant, _ in self.supervisor.errors}
        attempted = failed = 0
        for rung in self.rungs:
            attempted += len(rung["due"])
            failed += rung["rejected"]
            for tenant, name in zip(rung["tenants"], rung["feeds"]):
                if tenant in errors or self.summary_failed(
                        summaries.get(tenant), references[name]):
                    failed += len(rung["tenant_due"][tenant])
        return attempted, failed

    def rung_outcome(self, rung: Dict[str, Any]) -> Tuple[stats.Rung,
                                                           List[float]]:
        tenants = set(rung["tenants"])
        latencies = [1000.0 * latency for latency in stats.due_latencies(
            [arrival for arrival in self.arrivals if arrival[0] in tenants],
            rung["tenant_due"])]
        # The offered rate, stretched by how late the last event went.
        achieved = rung["rate"] * (
            (rung["due"][-1] - rung["due"][0])
            / (rung["sent"][-1] - rung["due"][0]))
        outcome = stats.Rung(
            rate=rung["rate"], achieved=achieved,
            p95_ms=stats.percentile(latencies, 95).value,
            grows=stats.backlog_grows(rung["due"], rung["sent"],
                                      rung["rate"]))
        return outcome, latencies

    def metrics(self, exponents: bool = True) -> Dict[str, float]:
        passes: List[List[stats.Rung]] = []
        nominal: List[float] = []
        saturated: List[Dict[str, Any]] = []
        for start in range(0, len(self.rungs), len(OFFERED_RATES)):
            outcomes = []
            for rung in self.rungs[start:start + len(OFFERED_RATES)]:
                outcome, latencies = self.rung_outcome(rung)
                outcomes.append(outcome)
                # Events over the time from the first due time until the
                # workers have drained every tenant.
                drained = len(rung["due"]) / (rung["drained"]
                                              - rung["due"][0])
                print(f"rung {outcome.rate:g}/s: achieved "
                      f"{outcome.achieved:.0f}/s, drained {drained:.0f}/s, "
                      f"p95 {outcome.p95_ms:.1f} ms over {len(latencies)} "
                      f"findings, backlog "
                      f"{'grows' if outcome.grows else 'steady'}",
                      file=sys.stderr)
                if rung["rate"] == OFFERED_RATES[0]:
                    nominal.extend(latencies)
                if rung["rate"] == OFFERED_RATES[-1]:
                    saturated.append(rung)
            passes.append(outcomes)
        sustained = []
        for outcomes in passes:
            best = stats.sustained_rate(outcomes, P95_LIMIT_MS)
            sustained.append(best.achieved if best is not None else 0.0)
        # Only the saturating top rung is limited by capacity; the lower
        # rungs run at their offered rate.  The ladders send different
        # feed sets and differ from one another more than runs of one seed
        # do, so their rungs are pooled rather than a median taken.
        metrics = {
            "events_per_s": sum(len(rung["due"]) for rung in saturated)
                / sum(rung["drained"] - rung["due"][0] for rung in saturated),
            "sustained_events_per_s": statistics.median(sustained)}
        # The nominal rungs of all ladders, pooled for the same reason.
        self.latency_groups = [nominal]
        metrics.update(latency_metrics(self.latency_groups))
        if exponents:
            metrics.update(self.exponents())
        return metrics

    def observed(self) -> Dict[str, float]:
        figures = super().observed()
        snapshot = self.registry.snapshot()
        figures["serve.backpressure_waits"] = float(sum(
            counter["value"] for counter in snapshot["counters"]
            if counter["name"] == "serve_backpressure_waits_total"))
        # Worker time the merged telemetry accounts for: flushes, native
        # feeds and checkpoints, over the worker-seconds of the ladder.
        busy = sum(histogram["sum"] for histogram in snapshot["histograms"]
                   if histogram["name"] in ("stream_flush_seconds",
                                            "stream_feed_seconds",
                                            "checkpoint_seconds"))
        figures["serve.worker_busy_ratio"] = busy / (
            SERVE_WORKERS * sum(self.pass_walls))
        figures["gen.late_max_ms"] = max(
            1000.0 * (sent - due)
            for rung in self.rungs if rung["rate"] == OFFERED_RATES[0]
            for due, sent in zip(rung["due"], rung["sent"]))
        return figures



WORKLOADS = {cls.name: cls for cls in (BatchCorpus, WatchReplay,
                                       ServeOpenLoop)}
