"""Machine-speed normalisation of query-loop timings.

On the shared 2-vCPU machine this benchmark was tuned on, the CPU
changes speed by 20-80% for seconds at a time when neighbours are busy
(CPU time equals wall time, so this is contention for the core and its
caches, not descheduling), and every timing shifts with it.  As in
``benchmarks/regress.py``, a timing is therefore divided by the time of
a fixed pure-Python calibration loop measured around it, then
multiplied by the loop's time on the reference machine,
:data:`REFERENCE_SPIN_S`, so values keep their units: seconds or
microseconds *at reference speed*.

The loop does random lookups in a dict of about 16 MB.  Against
``paper-mix`` query windows in three one-minute runs, the range of the
normalised 10-second medians was 5-9% with this loop and 13-15% with an
arithmetic spin loop, against 13-80% raw: the contention hits
memory-bound interpreter work hardest, as QHL's label lookups are.

A set-up (an index build) lasts seconds, as long as the slow phases,
so spins before and after it cannot scale it.  :meth:`Speed.timed`
therefore spins *inside* the call, every :data:`SAMPLE_PERIOD_S`
seconds from an interval timer, and scales each slice between two
spins on its own.  Over six consecutive NY/benchmark builds this cut
the range of the build times from 21% raw to 8%.

The loop does not track ``QHLIndex.query_many`` batches, whose time
goes mostly to forking two workers, their copy-on-write faults and
pickling the answers back: over six 12-second ``zipf-batch`` runs it
*raised* the spread of the batch figures (coefficient of variation
0.13-0.18, against 0.07-0.09 raw).  :class:`PoolSpeed` probes with a
job of that shape instead (0.06-0.09).
"""

from __future__ import annotations

import collections
import concurrent.futures
import gc
import multiprocessing
import random
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

#: Best-of-two time of :meth:`Speed.spin` on the reference machine.
REFERENCE_SPIN_S = 0.001
TABLE_SIZE = 100_000
LOOKUPS = 8_000
#: Interval of the calibration spins inside :meth:`Speed.timed`.
SAMPLE_PERIOD_S = 0.1
#: Time of :meth:`PoolSpeed.spin` on the reference machine.
REFERENCE_POOL_S = 0.08
#: Results each of the two :meth:`PoolSpeed.spin` workers sends back.
POOL_RESULTS = 10_000


class Speed:
    """Scale factors for consecutive intervals, from calibration spins
    at their boundaries: ``start()`` opens the first interval, each
    ``mark()`` closes one and opens the next.  A factor uses the median
    of the last :data:`SMOOTHING` spins, so one disturbed spin cannot
    skew the interval it closes; the slow phases last seconds, longer
    than that span of spins."""

    SMOOTHING = 5
    #: Time of :meth:`spin` on the reference machine.
    REFERENCE_S = REFERENCE_SPIN_S

    def __init__(self, table: "Speed | None" = None) -> None:
        """``table``: another ``Speed`` whose calibration table to share."""
        if table is None:
            rng = random.Random(0)
            self._table = {i: (i, float(i)) for i in range(TABLE_SIZE)}
            self._keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]
        else:
            self._table, self._keys = table._table, table._keys
        self.factors: list[float] = []
        self._recent: collections.deque[float] = collections.deque(
            maxlen=self.SMOOTHING
        )

    def spin(self) -> float:
        """Best-of-two time of the calibration loop (no ``repro`` code,
        nothing the cyclic garbage collector tracks)."""
        table = self._table
        best = float("inf")
        for _ in range(2):
            started = time.perf_counter()
            acc = 0.0
            for key in self._keys:
                acc += table[key][1]
            best = min(best, time.perf_counter() - started)
        return best

    def start(self) -> None:
        self._recent.append(self.spin())

    def mark(self) -> float:
        """Factor turning a timing of the interval just closed into a
        timing at reference speed."""
        self._recent.append(self.spin())
        factor = self.REFERENCE_S / statistics.median(self._recent)
        self.factors.append(factor)
        return factor

    def median(self) -> float:
        return statistics.median(self.factors) if self.factors else 1.0

    def timed(self, call: Callable[[], T]) -> tuple[T, float, float]:
        """``call()``, its duration in seconds at reference speed and
        its raw duration.

        A ``SIGALRM`` interval timer runs :meth:`spin` every
        :data:`SAMPLE_PERIOD_S` seconds inside the call (the handler runs
        on the main thread between bytecodes).  Each slice of the call
        between two spins is scaled by the mean of those two spins; the
        spins' own time is left out.  Interrupted system calls are
        retried by Python (PEP 475), so the call sees no difference.
        """
        spins = [self.spin()]
        cuts: list[tuple[float, float]] = []  # (slice end, next start)
        armed = True

        def on_alarm(_signum, _frame) -> None:
            if armed:
                paused = time.perf_counter()
                spins.append(self.spin())
                cuts.append((paused, time.perf_counter()))

        previous = signal.signal(signal.SIGALRM, on_alarm)
        started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            value = call()
        finally:
            armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            ended = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        spins.append(self.spin())
        ends = [paused for paused, _resumed in cuts] + [ended]
        starts = [started] + [resumed for _paused, resumed in cuts]
        seconds = raw = 0.0
        for k, (begin, end) in enumerate(zip(starts, ends, strict=True)):
            mean_spin = (spins[k] + spins[k + 1]) / 2
            seconds += (end - begin) * self.REFERENCE_S / mean_spin
            raw += end - begin
        return value, seconds, raw


_POOL_TABLE: dict = {}


def _pool_init(table: dict) -> None:
    global _POOL_TABLE
    _POOL_TABLE = table


def _pool_job(first: int) -> list:
    """One worker's share of :meth:`PoolSpeed.spin`: touch the inherited
    table (copy-on-write faults, as the engine's objects take) and build
    small result records to pickle back."""
    table = _POOL_TABLE
    return [
        (i, table[(i * 7919) % TABLE_SIZE], {"value": float(i)})
        for i in range(first, first + POOL_RESULTS)
    ]


class PoolSpeed(Speed):
    """:class:`Speed` with a probe shaped like a ``query_many`` batch:
    a fork pool of two workers that each send back
    :data:`POOL_RESULTS` records built from the inherited table."""

    REFERENCE_S = REFERENCE_POOL_S

    def spin(self) -> float:
        gc.collect()  # the same collector state as every batch
        started = time.perf_counter()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=2,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_pool_init,
            initargs=(self._table,),
        ) as pool:
            for _records in pool.map(_pool_job, (0, POOL_RESULTS)):
                pass
        return time.perf_counter() - started
