"""Host-speed calibration for the benchmark's time metrics.

The shared 2-vCPU VM the benchmark was built on runs the same code up to
twice as fast at one moment as at another, in spells that last from a
tenth of a second to minutes. Process CPU time drifts with wall time and
steal time stays 0, so the slowdown is per cycle (clock or neighbours'
cache pressure), and no clock of the process can exclude it.

The harness therefore runs a fixed reference kernel, which calls nothing
from groundedqa, from a wall-clock timer every ``PERIOD_S`` while it times
set-ups and items: the kernel runs in the ``SIGALRM`` handler, between two
bytecodes of whatever the program is doing. A timed interval reports its
wall time less the kernel runs inside it, times ``REF_MS`` over the median
kernel time of those runs and the ``AROUND`` nearest on each side: the time
the work would take on a machine on which the kernel takes ``REF_MS``. A
change that slows the program still reads slower, because the kernel does
not change with it; a slow spell of the host slows both and largely
cancels. Spells can be as short as an item, so only kernel runs during or
right next to the work track them.
"""

from __future__ import annotations

import bisect
import re
import signal
import statistics
import time

import numpy as np

# About the kernel's time in the fast phase of the VM above, so scaled times
# read close to that machine's wall times then.
REF_MS = 0.65
PERIOD_S = 0.02
AROUND = 2

# The kernel embeds short texts the way a hashed bag-of-tokens embedder does
# (regex split, a byte-wise integer hash, small numpy vectors) and ranks them.
# Over the runs it was tried on, its time tracked the slow spells of all four
# workloads more closely than a regex, dict and sort kernel did, which slowed
# more than the program in them.
_TEXTS = tuple(f"Ka{a}lo Mi{b}ra member of Ven{a}tor Bel{b}sa {a * 37 + b}"
               for a in range(5) for b in range(10))
_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")
_MASK64 = (1 << 64) - 1


def kernel() -> int:
    """Fixed work: tokenize, hash and embed 50 texts, then rank them by distance."""
    vectors = []
    for text in _TEXTS:
        vec = np.zeros(64)
        for token in _TOKEN_SPLIT.split(text.lower()):
            if token:
                h = 0xCBF29CE484222325
                for byte in token.encode():
                    h = ((h ^ byte) * 0x100000001B3) & _MASK64
                vec[h % 64] += 1.0
        vectors.append(vec / np.linalg.norm(vec))
    scored = sorted((float(np.linalg.norm(v - vectors[0])), i) for i, v in enumerate(vectors))
    return scored[1][1]


class Speed:
    """Kernel timings taken every ``PERIOD_S`` inside ``with``, and the scaled
    time of intervals timed there. Main thread only (it uses ``SIGALRM``)."""

    def __init__(self):
        self.stamps: list[float] = []  # perf_counter midpoint of each probe, ascending
        self.ms: list[float] = []

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _probe(self, *_signal) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.stamps.append((start + end) / 2)
        self.ms.append(1000 * (end - start))

    def measure(self, pieces: list[tuple[float, float]]) -> float:
        """Scaled ms of the ``(start, end)`` pieces, in time order, less their probes.

        The scale comes from the probes inside the pieces and the ``AROUND``
        nearest before the first piece and after the last.
        """
        wall, chosen = 0.0, []
        for start, end in pieces:
            i = bisect.bisect_left(self.stamps, start)
            j = bisect.bisect_right(self.stamps, end)
            wall += 1000 * (end - start) - sum(self.ms[i:j])
            chosen += self.ms[i:j]
        first = bisect.bisect_left(self.stamps, pieces[0][0])
        last = bisect.bisect_right(self.stamps, pieces[-1][1])
        chosen += self.ms[max(0, first - AROUND):first] + self.ms[last:last + AROUND]
        if not chosen:
            raise ValueError("no probe in or next to the interval")
        return wall * REF_MS / statistics.median(chosen)
