"""Seeded input generation.

Every input the program sees is generated here, from the benchmark's
``--seed``, with the program's own generators (``build_trace``, which
also serves the scenario families of ``repro.gen``), and written to files
before any timing starts: ``.stc`` traces for the batch jobs and
``.std.gz`` feeds for the streaming tenants.  The same seed gives the
same files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

#: Threads of every generated trace.
THREADS = 4

#: Scaling ladder: the largest trace has ``4 * LADDER_N`` events and its
#: prefixes of ``LADDER_N`` and ``2 * LADDER_N`` events are the smaller
#: rungs, so the three sizes share one execution's shape.
LADDER_N = 500
LADDER_MULTIPLES = (1, 2, 4)
#: Generated traces per ladder rung.  Scaling cost differs a lot between
#: generated executions; the rung time is summed over this many of them so
#: the exponent describes the generator's distribution, not one draw.
LADDER_TRACES = 10
LADDER_KINDS = (("racy", "race-prediction"),
                ("deadlock", "deadlock-prediction"))

#: One trace per kind, run with every analysis its kind feeds.
SINGLE_KINDS = ("locked-mix", "c11", "tso", "heap-churn", "memory")
SINGLE_EVENTS_PER_THREAD = 250

#: Streaming tenants: ``memory`` traces, one feed per tenant.  Passes
#: take the feed sets in turn, so that a run's figures average over more
#: than one draw of feeds.
TENANTS = 4
FEED_SETS = 8
FEED_EVENTS_PER_THREAD = 250
#: Heap objects per feed.  With the generator's default of 20 every object
#: is allocated and freed early, so all findings surface in the first
#: flushes; 150 keeps allocation going for the whole feed, and findings
#: surface at every flush.
FEED_OBJECTS = 150


def generate(seed: int, directory: Path) -> Dict[str, Any]:
    """Write every input for ``seed`` into ``directory`` and return the
    manifest (also written as ``manifest.json``)."""
    from repro.trace import Trace, build_trace, save_trace
    from repro.trace.generators import GENERATOR_REGISTRY

    directory.mkdir(parents=True, exist_ok=True)
    ladder: List[Dict[str, Any]] = []
    for kind_number, (kind, analysis) in enumerate(LADDER_KINDS):
        for draw in range(LADDER_TRACES):
            trace = build_trace(
                kind, num_threads=THREADS,
                events=LADDER_N * max(LADDER_MULTIPLES) // THREADS,
                seed=_subseed(seed, kind_number, draw))
            events = list(trace)
            for multiple in LADDER_MULTIPLES:
                size = len(events) * multiple // max(LADDER_MULTIPLES)
                path = directory / f"{kind}-{draw}-x{multiple}.stc"
                save_trace(Trace(events[:size], name=path.stem), path)
                ladder.append({"analysis": analysis, "path": str(path),
                               "events": size, "multiple": multiple,
                               "draw": draw})
    singles: List[Dict[str, Any]] = []
    for kind_number, kind in enumerate(SINGLE_KINDS):
        trace = build_trace(kind, num_threads=THREADS,
                            events=SINGLE_EVENTS_PER_THREAD,
                            seed=_subseed(seed, 10 + kind_number, 0),
                            name=kind)
        path = directory / f"{kind}.stc"
        save_trace(trace, path)
        for analysis in GENERATOR_REGISTRY[kind].analyses:
            singles.append({"analysis": analysis, "path": str(path),
                            "events": len(trace), "multiple": 0,
                            "draw": 0})
    feeds: List[Dict[str, Any]] = []
    for feed_set in range(FEED_SETS):
        for tenant in range(TENANTS):
            name = f"s{feed_set}-mem{tenant}"
            trace = build_trace("memory", num_threads=THREADS,
                                events=FEED_EVENTS_PER_THREAD,
                                seed=_subseed(seed, 20 + feed_set, tenant),
                                num_objects=FEED_OBJECTS, name=name)
            path = directory / f"{name}.std.gz"
            save_trace(trace, path)
            feeds.append({"set": feed_set, "tenant": name,
                          "path": str(path), "events": len(trace)})
    manifest = {"seed": seed, "ladder": ladder, "singles": singles,
                "feeds": feeds}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def _subseed(seed: int, stream: int, draw: int) -> int:
    """A distinct generator seed per (benchmark seed, input, draw)."""
    return seed * 10000 + stream * 50 + draw
