"""Ordered, pairwise-disjoint unions of open intervals.

This is the common currency for the grid-window set systems (G1, G2), their
ladder mirrors, and sign partitions.  Collections are immutable after
construction and serialize to CSV and JSON with bit-exact float round-trip
(floats are written with repr, which Python guarantees to round-trip).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

LABELS = (
    "G1",
    "G2",
    "mirrored-G1",
    "mirrored-G2",
    "pos-part",
    "neg-part",
    "other",
)

#: 2 dropped the "window" hull; from_json ignores it in schema-1 files.
_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class IntervalCollection:
    """A finite, sorted, pairwise-disjoint union of open intervals (lo, hi)."""

    intervals: tuple
    label: str = "other"

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        for lo, hi in ivs:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")
        for (_, hi), (lo2, _) in zip(ivs, ivs[1:]):
            if hi > lo2:
                raise ValueError("intervals must be sorted and pairwise disjoint")

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def lows(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.intervals])

    @property
    def highs(self) -> np.ndarray:
        return np.array([hi for _, hi in self.intervals])

    def measure(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))

    # -- set algebra used by the harness ------------------------------------

    def union(self, other: "IntervalCollection",
              clip_tol: float = 0.0) -> "IntervalCollection":
        """Merge two disjoint collections into one sorted collection, labelled
        "other".

        Overlaps up to ``clip_tol`` (solver-noise scale, e.g. endpoints of
        neighboring sets that solve the same grid equation independently) are
        resolved at the overlap midpoint; larger overlaps are rejected.
        """
        merged = sorted(self.intervals + other.intervals)
        fixed: list = []
        for lo, hi in merged:
            if fixed and lo < fixed[-1][1]:
                if fixed[-1][1] - lo > clip_tol:
                    raise ValueError("collections overlap beyond clip_tol")
                mid = 0.5 * (fixed[-1][1] + lo)
                fixed[-1] = (fixed[-1][0], mid)
                lo = mid
            fixed.append((lo, hi))
        return IntervalCollection(tuple(fixed))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "schema_version": _SCHEMA_VERSION,
            "label": self.label,
            "intervals": [[lo, hi] for lo, hi in self.intervals],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "IntervalCollection":
        payload = json.loads(text)
        return cls(tuple(map(tuple, payload["intervals"])), payload["label"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["lo", "hi", "label"])
        for lo, hi in self.intervals:
            writer.writerow([repr(lo), repr(hi), self.label])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "IntervalCollection":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["lo", "hi", "label"]:
            raise ValueError("bad interval CSV header")
        body = rows[1:]
        label = body[0][2] if body else "other"
        return cls(tuple((float(lo), float(hi)) for lo, hi, _ in body), label)
