"""The machine's speed while a child works, measured with fixed references.

On the host this benchmark was tuned on, the same pure-Python code runs
in two speeds that alternate every fraction of a second: a fixed loop takes
either about 1x or about 1.9x its fastest time, and CPU time rises along
with wall time.  How much of a pass falls in the slow mode changes from
minute to minute, by more than any change worth detecting, and medians
over one run cannot remove that.  So the harness divides every time by a
speed factor measured next to it with a reference that does not involve
specrep, so that no change to the package changes the reference.

* Pass times: the child times a fixed loop, the *reference chunk*, every
  SAMPLE_EVERY_S seconds from a SIGALRM handler while the pass runs.  The
  factor is the chunks' harmonic mean time over REF_CHUNK_S.  The samples
  are spread evenly in time and the work done in an interval is its length
  times the speed (1 / chunk time), so the mean speed is what turns wall
  time into work.  A median would not do: the chunk times are bimodal.

      sampler = Sampler(); sampler.start()   # chunks on a wall-clock timer
      ...                                    # the work being timed
      sampler.stop()
      sampler.factor()                       # REF_CHUNK_S / chunk, averaged
      sampler.factor(a, b)                   # the same, near one query

  A percentile of query latencies is not linear in the time spent in each
  mode, as a pass's total is, so each query is divided by the factor of
  the samples taken within LOCAL_PAD_S of it.

* Set-up time: start-up is import work (file reads, unmarshalling, shared
  libraries), which the slow mode slows less than the chunk.  So just
  before each child the parent times a *reference start*, an interpreter
  that imports numpy and exits, and the factor is its time over
  REF_START_S.
"""

from __future__ import annotations

import bisect
import signal
import subprocess
import sys
import time

# Typical duration of one reference chunk, and of one reference start, on the
# 2-vCPU VM of the baseline (Python 3.11, numpy 2.4).  Any fixed values
# work: they only set the scale, so that normalized times read about as
# seconds there.
REF_CHUNK_S = 0.0012
REF_START_S = 0.2
REF_START_ARGS = ("-c", "import numpy")
SAMPLE_EVERY_S = 0.05
LOCAL_PAD_S = 0.1  # a query's factor uses the samples this close to it


def chunk() -> int:
    """One reference chunk: a fixed amount of interpreter work, made of what
    specrep's Weyl-group code is made of (tuple permutation products, dict
    and set traffic, small-int arithmetic)."""
    n = 11
    step = tuple((5 * i + 3) % n for i in range(n))
    perm = tuple(range(n))
    seen: dict = {}
    marks: set = set()
    acc = 0
    for k in range(500):
        perm = tuple(perm[i] for i in step)
        if perm in seen:
            acc += seen[perm]
        else:
            seen[perm] = k
        marks.add(perm[0] * n + perm[-1])
        acc = (acc * 31 + perm[k % n] + len(marks)) % 1000003
    return acc


def timed_chunk() -> float:
    a = time.perf_counter()
    chunk()
    return time.perf_counter() - a


def start_factor(env: dict, cwd: str, timeout: float) -> float:
    """Time one reference start; > 1 means slower than the reference."""
    a = time.perf_counter()
    subprocess.run([sys.executable, *REF_START_ARGS], cwd=cwd, env=env,
                   stdout=subprocess.DEVNULL, check=True, timeout=timeout)
    return (time.perf_counter() - a) / REF_START_S


class Sampler:
    """Times one chunk every SAMPLE_EVERY_S seconds of wall time, from a
    SIGALRM handler, so that the samples cover the whole pass.  `spent`
    is the time taken by the handler, for the caller to subtract."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # chunk times
        self.at: list[float] = []  # when each was taken
        self.spent = 0.0
        self._old = None

    def _take(self) -> None:
        self.at.append(time.perf_counter())
        self.samples.append(timed_chunk())

    def _on_alarm(self, signum, frame) -> None:
        a = time.perf_counter()
        self._take()
        self.spent += time.perf_counter() - a

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def top_up(self, count: int) -> None:
        """Time chunks back to back until there are count samples.  These
        run hot in the caches, unlike the sampled ones, so they are only a
        fallback for a pass too short to be sampled at all."""
        while len(self.samples) < count:
            self._take()

    def factor(self, a: float | None = None, b: float | None = None) -> float:
        """How much slower the machine ran than the reference: > 1 is slower.
        Over all samples, or over those within LOCAL_PAD_S of [a, b] (all
        samples if there are none)."""
        xs = self.samples
        if a is not None:
            lo = bisect.bisect_left(self.at, a - LOCAL_PAD_S)
            hi = bisect.bisect_right(self.at, b + LOCAL_PAD_S)
            xs = xs[lo:hi] or xs
        return len(xs) / sum(REF_CHUNK_S / x for x in xs)
