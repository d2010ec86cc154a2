"""A fixed reference kernel, timed next to the program to correct its times
for the speed of the machine at that moment.

On a shared host the same work can take twice as long in one minute as in
the next.  The reference kernel does work of the same kind as the program
(parse a rich-XML page with ``xml.etree``, read token attributes as
floats, classify words with a regular expression, group and sort lines,
a few small numpy log-sum-exp steps like the CRF's, and a walk through a
heap of small objects far larger than the CPU caches), on fixed input
built here from the standard library and numpy alone, so no change to the
program can change it.  The heap walk is there because the program chases
pointers through a large heap and slows less than compute-bound code when
the host is busy; without it the kernel slowed about 1.6 times where the
program slowed 1.35 to 1.4 times.  A run times the kernel before each document (and around
each ``train_all``).  The *slowness* of an interval is the median time of
the kernel calls made from ``WINDOW_S`` before it to ``WINDOW_S`` after it,
divided by ``REFERENCE_MS``.  Each reported time is a measured interval
divided by its own slowness: the time the work would have taken with the
machine running at the speed where the kernel takes ``REFERENCE_MS``.
Scaling each interval by the calls around it, not a whole run by all its
calls, matters because the machine switches between speeds about twice
apart, so a run's latencies and its kernel times are both bimodal and
their medians can fall in different modes.
"""

from __future__ import annotations

import bisect
import gc
import random
import re
import statistics
import time
from xml.etree import ElementTree as ET

import numpy as np

# A fixed unit: scaled times are times at the machine speed where one
# kernel call takes this long.  Changing it rescales every reported time.
REFERENCE_MS = 2.0
# Kernel calls this close to an interval give its slowness; when there are
# fewer than MIN_CALLS, the MIN_CALLS calls nearest to it do.
WINDOW_S = 0.5
MIN_CALLS = 5

_WORDS = ("model", "sequence", "Retrieval", "CRF", "2016", "et", "al.",
          "University", "[12]", "Figure", "http://example.org/x", "the",
          "Structured", "of", "labels", "Table", "3.2", "and", "token")
_WORD = re.compile(r"^(?:[A-Z][a-z]+|[a-z]+|\d+(?:\.\d+)?|\[\d+\]|\S+)$")


def _page_xml(lines: int = 24, per_line: int = 9) -> bytes:
    rng = random.Random(20160920)
    page = ET.Element("DOCUMENT")
    body = ET.SubElement(page, "PAGE", number="1", width="612.0",
                         height="792.0")
    for i in range(lines):
        text = ET.SubElement(body, "TEXT")
        x = 60.0 + rng.choice((0.0, 246.0))
        for _ in range(per_line):
            word = rng.choice(_WORDS)
            size = rng.choice((9.0, 10.0, 10.0, 12.0))
            width = round(len(word) * size * 0.5, 1)
            tok = ET.SubElement(text, "TOKEN", x=f"{x:.1f}",
                                y=f"{80.0 + i * 20.0:.1f}",
                                width=f"{width:.1f}", height=f"{size:.1f}",
                                **{"font-size": f"{size:.1f}",
                                   "bold": rng.choice(("yes", "no")),
                                   "italic": "no", "font-name": "Regular"})
            tok.text = word
            x += width + 5.0
    return ET.tostring(page, encoding="utf-8", xml_declaration=True)


def _heap(objects: int) -> list[dict]:
    rng = random.Random(20160920)
    heap = [{"x": float(i), "kids": [i, str(i)]} for i in range(objects)]
    rng.shuffle(heap)
    return heap


_XML = _page_xml()
_WEIGHTS = np.random.default_rng(20160920).normal(size=(9, 9))
# About 10 MB of objects, visited in shuffled order, WALK of them per call.
_HEAP = _heap(30_000)
WALK = 1_200
_walked = 0


def kernel() -> int:
    """One unit of reference work; returns a checksum so nothing is idle.
    Each call walks the next WALK objects of the heap."""
    global _walked
    start = _walked % len(_HEAP)
    _walked += WALK
    total = 0.0
    for obj in _HEAP[start:start + WALK]:
        total += obj["x"] + len(obj["kids"][1])
    root = ET.fromstring(_XML)
    lines = []
    sizes: dict[float, int] = {}
    for text in root.iter("TEXT"):
        tokens = []
        for tok in text:
            size = float(tok.get("font-size"))
            sizes[size] = sizes.get(size, 0) + 1
            kind = _WORD.match(tok.text or "")
            tokens.append((float(tok.get("x")), float(tok.get("y")),
                           float(tok.get("width")), tok.text,
                           kind is not None and tok.get("bold") == "yes"))
        tokens.sort()
        lines.append((tokens[0][1], tokens[0][0],
                      " ".join(t[3] for t in tokens)))
    lines.sort()
    alpha = np.zeros(9)
    for _y, _x, line in lines:
        scores = alpha[:, None] + _WEIGHTS
        top = scores.max(axis=0)
        alpha = top + np.log(np.exp(scores - top).sum(axis=0)) - len(line) % 3
    return (len(lines) + int(max(sizes, key=sizes.get)) + int(alpha[0] > 0)
            + int(total) % 7)


class Reference:
    """Kernel timings of one run, and the slowness they give."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each call, ascending
        self.samples: list[float] = []  # seconds each call took

    def warm(self, calls: int = 3) -> None:
        for _ in range(calls):
            kernel()

    def sample(self) -> float:
        """Time one kernel call with the cyclic collector off, so a
        collection of the program's garbage is not charged to it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.starts.append(start)
        self.samples.append(elapsed)
        return elapsed

    def slowness(self, start: float | None = None,
                 end: float | None = None) -> float:
        """Median kernel time over ``REFERENCE_MS`` for the calls around
        the interval ``start``..``end`` (all calls when it is not given);
        1.0 with no calls at all."""
        if not self.samples:
            return 1.0
        if start is None:
            chosen = self.samples
        else:
            lo = bisect.bisect_left(self.starts, start - WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + WINDOW_S)
            if hi - lo < MIN_CALLS:
                middle = (start + end) / 2
                lo = max(0, min(bisect.bisect_left(self.starts, middle)
                                - MIN_CALLS // 2,
                                len(self.samples) - MIN_CALLS))
                hi = lo + MIN_CALLS
            chosen = self.samples[lo:hi]
        return statistics.median(chosen) * 1e3 / REFERENCE_MS
