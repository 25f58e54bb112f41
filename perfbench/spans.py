"""Span arithmetic over Chrome ``trace_event`` records.

The traced runs record :mod:`repro.obs` spans; :meth:`Tracer.flush`
writes them as complete (``"ph": "X"``) events with microsecond
``ts``/``dur``. Everything here works on those dicts:

* a span's *children* are the spans nested inside it on the same
  process and thread (synchronous calls nest strictly);
* its *self time* is its duration minus the part of that interval its
  children cover;
* *coverage* is the share of a root span's interval that a set of
  named spans covers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

Interval = Tuple[float, float]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(events: Sequence[Dict]) -> List[float]:
    """Self time of each event (same order as ``events``), in µs."""
    children: Dict[int, List[Interval]] = {}
    by_thread: Dict[Tuple, List[int]] = {}
    for index, event in enumerate(events):
        by_thread.setdefault((event.get("pid"), event.get("tid")), []).append(index)
    for indices in by_thread.values():
        # Parents sort before the children they contain: earlier start
        # first, and at equal starts the longer span first.
        indices.sort(key=lambda i: (events[i]["ts"], -events[i]["dur"]))
        stack: List[int] = []
        for index in indices:
            start = events[index]["ts"]
            end = start + events[index]["dur"]
            while stack and events[stack[-1]]["ts"] + events[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                parent = events[stack[-1]]
                parent_end = parent["ts"] + parent["dur"]
                children.setdefault(stack[-1], []).append(
                    (start, min(end, parent_end))
                )
            stack.append(index)
    return [
        event["dur"] - union_length(children.get(index, ()))
        for index, event in enumerate(events)
    ]


def within(events: Sequence[Dict], root: Dict) -> List[Dict]:
    """Events of the root's process that start inside its interval."""
    lo = root["ts"]
    hi = lo + root["dur"]
    return [
        event
        for event in events
        if event is not root and event.get("pid") == root.get("pid")
        and lo <= event["ts"] < hi
    ]


def coverage(root: Dict, spans: Iterable[Dict]) -> float:
    """Share of ``root``'s interval covered by ``spans`` (0..1)."""
    if root["dur"] <= 0:
        return 0.0
    lo = root["ts"]
    hi = lo + root["dur"]
    clipped = [
        (max(lo, span["ts"]), min(hi, span["ts"] + span["dur"]))
        for span in spans
    ]
    return union_length(
        (start, end) for start, end in clipped if end > start
    ) / root["dur"]
