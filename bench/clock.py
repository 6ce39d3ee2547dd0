"""Timing scaled to a reference speed of the host.

On a shared host the same work can run 1.7 times slower for seconds or
minutes at a stretch, when a neighbour loads the core.  A fixed
pure-Python reference loop slows down with it.  `Clock` therefore times
a few milliseconds of that loop between stretches of about CHUNK_SECONDS
of measured work, and scales each stretch by REF_SECONDS over the
reference times around it.  A scaled time reads as the raw
time the host gives when the reference loop takes REF_SECONDS, which is
about its median time on an unloaded 2.1 GHz Xeon core under CPython
3.11.
"""

from __future__ import annotations

import random
import time

REF_SECONDS = 0.0023
CHUNK_SECONDS = 0.1


def reference_work() -> int:
    """Fixed work of the kind the program does: small strings, tuples,
    sets, dicts and sorts.  Never touches the program under test."""
    rng = random.Random(1)
    acc = {}
    for _ in range(800):
        text = "(" + " & ".join(sorted(str(rng.randrange(50))
                                       for _ in range(4))) + ")"
        key = frozenset(text.split(" & "))
        acc[key] = acc.get(key, 0) + len(text)
    return max(acc.values())


def reference_seconds() -> float:
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


class Clock:
    """Collects raw times under keys, in stretches of about CHUNK_SECONDS
    with a reference time taken between stretches.  `finish` scales each
    stretch by REF_SECONDS over the median of the WINDOW reference times
    nearest it: slow spells last seconds, the jitter of one reference
    time does not."""

    WINDOW = 9

    def __init__(self):
        self.scaled = {}
        self.factors = []
        self._chunks = [[]]
        self._refs = [reference_seconds()]
        self._since = time.perf_counter()

    def add(self, key, raw_seconds):
        self._chunks[-1].append((key, raw_seconds))
        if time.perf_counter() - self._since >= CHUNK_SECONDS:
            self._refs.append(reference_seconds())
            self._chunks.append([])
            self._since = time.perf_counter()

    def finish(self):
        """Scale every stretch; returns the scaled times by key."""
        self._refs.append(reference_seconds())
        half = self.WINDOW // 2
        for i, chunk in enumerate(self._chunks):
            near = sorted(self._refs[max(0, i - half):i + half + 2])
            factor = REF_SECONDS / near[len(near) // 2]
            self.factors.append(factor)
            for key, raw in chunk:
                self.scaled[key] = raw * factor
        return self.scaled
