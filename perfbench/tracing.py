"""In-memory spans recorded by the benchmark around its calls into ``wlns``.

A span is ``(id, name, start, end, parent, pass_id)``; names are
``<module>.<function>[.<size>]`` so the module (the layer) is the first
dotted part.  Spans stay in memory and are written once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    """Collects spans when enabled; a disabled recorder only yields."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "pass_id": self.pass_id,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, pass_id: str | None = None) -> list[float]:
        """Durations in seconds of the spans called ``name`` (in one pass, if given)."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (pass_id is None or s["pass_id"] == pass_id)
        ]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        kids = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - covered(k for k in kids if k[1] > k[0])
    return out


def layer_self_seconds(spans, pass_ids=None) -> dict[str, float]:
    """Self time summed per layer (first dotted part of the span name)."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        if pass_ids is None or s["pass_id"] in pass_ids:
            totals[s["name"].split(".", 1)[0]] += own[s["id"]]
    return dict(totals)
