"""How fast the host runs Python right now, from a fixed reference loop.

The 2-core VM the benchmark was sized on changes speed by up to 2x over
seconds to minutes as other tenants load the machine, and medians of ten
runs moved by 20 % between batches of runs minutes apart.  So every op is
timed together with this loop: once just before it, once just after it,
and, for ops that run inside the benchmark's own process, every PERIOD
seconds while it runs, from a timer signal.  The benchmark reports op
times scaled to a host on which the loop takes REFERENCE_S: the op's own
seconds (the timer's share taken out) times REFERENCE_S over the loop's
mean time.

The loop does integer arithmetic and calls only, so it allocates nothing
the garbage collector tracks and nothing the package does can speed it
up or slow it down.
"""

import math
import signal
import statistics
from time import perf_counter

# the loop's median time on the VM the benchmark was sized on
REFERENCE_S = 0.005
LOOP = 20000
# timer samples during an op: a quarter of the loop every PERIOD s
PERIOD = 0.2
TICK = LOOP // 4


def _loop(n):
    a = 1
    for i in range(n):
        a = (a * 7 + math.gcd(a, i | 1)) % 1000003
    return a


def sample() -> float:
    """Median of three timings of the reference loop, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _loop(LOOP)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times a quarter of the loop every PERIOD s from SIGALRM.

    ``times`` holds each timing scaled to the whole loop; ``spent`` is the
    wall time the timer took from the op.  ``pause(dt)`` is told of each
    tick, so a tracer can take it out of its open spans.
    """

    def __init__(self, pause=None):
        self.times = []
        self.spent = 0.0
        self.pause = pause

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _loop(TICK)
        t1 = perf_counter()
        self.times.append((t1 - t0) * LOOP / TICK)
        if self.pause is not None:
            self.pause(perf_counter() - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
