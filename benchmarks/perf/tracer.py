"""In-memory span tracer for the traced benchmark repeat.

Two kinds of boundary, both recorded from outside the simulator by
wrapping the callable that crosses the boundary:

* **run-granularity spans** (a handful per simulation: ``run``,
  ``simulator.construct``, ``engine.run``, ``engine.drain``,
  ``stats.summarize`` …) are kept individually as
  ``{id, parent, run, name, start_ns, end_ns}``;
* **per-call spans** (10^5–10^7 per body: ``engine.step``, the phases,
  ``routing.decide`` …) are folded per simulation into
  ``{run, span, parent, name, count, total_ns, self_ns}``, where
  ``span`` is the id of the nearest enclosing individual span.

Self time is a span's duration minus the part of it covered by child
spans, so the self times of one simulation add up to its wall time.
Everything stays in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import json
import math
import time
from typing import Callable, Dict, List, Optional

#: Step-duration histogram: bucket ``i`` holds durations in
#: ``[2**(i/8), 2**((i+1)/8))`` ns — fixed ~9 % wide buckets.
BUCKETS_PER_OCTAVE = 8


class Tracer:
    """Span stack plus the two stores described in the module docstring."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: (run, enclosing span id, parent name, name)
        #: -> [count, total_ns, self_ns]
        self.aggregates: Dict[tuple, List[int]] = {}
        #: name -> {bucket: count} for wrappers created with ``histogram``.
        self.histograms: Dict[str, Dict[int, int]] = {}
        #: Identifier shared by every span of the current simulation.
        self.run_id: Optional[int] = None
        # Frames are [name, child_ns, span id]; the root frame absorbs
        # the child time of top-level spans so wrappers never test for
        # an empty stack.
        self._stack: List[list] = [["<root>", 0, None]]

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so every call is stored as an individual span."""
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            record = {
                "id": len(spans), "parent": parent[2], "run": self.run_id,
                "name": name, "start_ns": 0, "end_ns": 0, "self_ns": 0,
            }
            spans.append(record)
            frame = [name, 0, record["id"]]
            stack.append(frame)
            record["start_ns"] = start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record["end_ns"] = end
                record["self_ns"] = end - start - frame[1]
                parent[1] += end - start

        return traced

    def aggregate(self, name: str, fn: Callable,
                  histogram: bool = False) -> Callable:
        """Wrap ``fn`` so its calls fold into one row per (run, parent)."""
        stack = self._stack
        aggregates = self.aggregates
        clock = time.perf_counter_ns
        hist = self.histograms.setdefault(name, {}) if histogram else None
        log2 = math.log2

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[1] += dur
                key = (self.run_id, parent[2], parent[0], name)
                row = aggregates.get(key)
                if row is None:
                    aggregates[key] = [1, dur, dur - frame[1]]
                else:
                    row[0] += 1
                    row[1] += dur
                    row[2] += dur - frame[1]
                if hist is not None:
                    bucket = int(BUCKETS_PER_OCTAVE * log2(dur)) if dur > 0 else 0
                    hist[bucket] = hist.get(bucket, 0) + 1

        return traced

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: ``count``, ``total_ns`` and ``self_ns`` over
        both stores."""
        out: Dict[str, Dict[str, int]] = {}
        for (*_, name), (count, total, self_ns) in self.aggregates.items():
            row = out.setdefault(
                name, {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            row["count"] += count
            row["total_ns"] += total
            row["self_ns"] += self_ns
        for span in self.spans:
            row = out.setdefault(
                span["name"], {"count": 0, "total_ns": 0, "self_ns": 0}
            )
            row["count"] += 1
            row["total_ns"] += span["end_ns"] - span["start_ns"]
            row["self_ns"] += span["self_ns"]
        return out

    def percentile_ns(self, name: str, q: float) -> Optional[float]:
        """Upper edge of the histogram bucket holding quantile ``q``."""
        hist = self.histograms.get(name)
        if not hist:
            return None
        need = q * sum(hist.values())
        seen = 0
        for bucket in sorted(hist):
            seen += hist[bucket]
            if seen >= need:
                return 2.0 ** ((bucket + 1) / BUCKETS_PER_OCTAVE)
        return None

    def dump(self, path, **header) -> None:
        """Write every span and aggregate row to ``path`` as JSON."""
        rows = [
            {"run": run, "span": span, "parent": parent, "name": name,
             "count": count, "total_ns": total, "self_ns": self_ns}
            for (run, span, parent, name), (count, total, self_ns)
            in self.aggregates.items()
        ]
        histograms = {
            name: {str(bucket): n for bucket, n in sorted(hist.items())}
            for name, hist in self.histograms.items()
        }
        with open(path, "w") as fh:
            json.dump(
                {**header, "spans": self.spans, "aggregates": rows,
                 "histograms": histograms,
                 "buckets_per_octave": BUCKETS_PER_OCTAVE},
                fh,
            )
