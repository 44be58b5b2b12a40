"""Per-layer attribution for the traced run.

Two views charge a round's cost to the layers of the stack:

* host time: cProfile self time and call counts grouped by the
  ``repro.<pkg>`` package that owns each function.  A C builtin (a
  ``bytes.join``, a ``heapq.heappush``) has no package of its own, so
  its self time is charged to the packages of its callers, in
  proportion to the time each call edge recorded;
* simulated time: the self time of every ``repro.obs`` span (its
  duration minus the part of it its child spans cover), grouped by the
  span's layer (``disk``, ``raid``, ``lfs``...).
"""

from __future__ import annotations

import os
import pstats

import repro

#: Packages reported one by one; the rest of ``repro`` is ``other``.
PACKAGES = ("sim", "hw", "raid", "lfs", "ffs", "faults", "server", "obs",
            "net", "host", "analysis")
#: Span layers the data path records (``<layer>.<operation>``).
SPAN_LAYERS = ("server", "ultranet", "hippi", "xbus", "xmem", "parity",
               "vme", "cougar", "scsi", "disk", "raid", "lfs", "cleaner")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def package_of(filename: str) -> str:
    """``repro`` package owning a source file, ``other`` or ``nonrepro``."""
    if filename.startswith("~") or filename.startswith("<"):
        return "builtin"
    relative = os.path.relpath(os.path.abspath(filename), _REPRO_DIR)
    if relative.startswith(".."):
        return "nonrepro"
    head = relative.split(os.sep, 1)[0]
    return head if head in PACKAGES else "other"


def profile_by_package(profile) -> dict:
    """Self seconds and calls per package from a finished cProfile."""
    stats = pstats.Stats(profile).stats
    self_s = {name: 0.0 for name in PACKAGES + ("other", "nonrepro")}
    calls = {name: 0 for name in PACKAGES + ("other", "nonrepro")}
    for (filename, _line, _func), (_cc, ncalls, tottime, _ct, callers) \
            in stats.items():
        owner = package_of(filename)
        if owner != "builtin":
            self_s[owner] += tottime
            calls[owner] += ncalls
            continue
        # Charge the builtin to its callers, by the time on each edge.
        edge_total = sum(edge[2] for edge in callers.values())
        for caller, edge in callers.items():
            caller_pkg = package_of(caller[0])
            if caller_pkg == "builtin":
                caller_pkg = "nonrepro"
            share = edge[2] / edge_total if edge_total else 1 / len(callers)
            self_s[caller_pkg] += tottime * share
            calls[caller_pkg] += edge[0]
        if not callers:
            self_s["nonrepro"] += tottime
    return {"self_s": self_s, "calls": calls}


def span_self_seconds(spans, since: float) -> dict:
    """Simulated self seconds per span layer, for spans after ``since``."""
    kept = [span for span in spans
            if span.start is not None and span.end is not None
            and span.start >= since]
    children: dict[int, list] = {}
    for span in kept:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    totals = {layer: 0.0 for layer in SPAN_LAYERS}
    for span in kept:
        covered = _covered(span, children.get(span.id, ()))
        layer = span.layer
        totals[layer] = totals.get(layer, 0.0) + (
            span.end - span.start - covered)
    return totals


def _covered(span, kids) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted((max(kid.start, span.start), min(kid.end, span.end))
                       for kid in kids)
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def count_spans(spans, since: float, name: str) -> int:
    return sum(1 for span in spans
               if span.name == name and span.start is not None
               and span.start >= since)
