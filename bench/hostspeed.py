"""Host-speed sampling for the benchmark's untraced runs.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two in stretches of a few seconds, with no steal time to show
for it.  A run's wall time therefore measures the host as much as the
program.  ``HostSpeed`` measures the host while an op runs: a timer signal
interrupts the op every ``interval`` seconds and times a small fixed probe
(a mix of pure-Python and small-numpy work, like the program's own).  Each
probe gives the host's speed at that moment as ``PROBE_NOMINAL_S / probe``.

``normalized(t0, t1)`` turns the wall time of an op that ran from ``t0`` to
``t1`` into seconds at nominal host speed: the op's wall time, less the time
spent in probes, times the mean speed of the probes taken during the op.
The probe itself is the benchmark's own fixed code, so a change to the
program moves the normalized time as it moves the op's wall time on a host
of steady speed.  ``sample()`` probes once on demand; the benchmark uses it
around each set-up pass.
"""

import signal
import statistics
import time

import numpy as np

# Roughly the probe's time on the host the benchmark was tuned on (2 shared
# cores, Python 3.11, numpy 2.4), where it took 0.7 to 1.1 ms.  Any fixed
# value would do: only runs on one host are compared with each other.
PROBE_NOMINAL_S = 0.001
PROBE_ROUNDS = 3


def probe():
    """A fixed ~1 ms of interpreter, allocation and array work; returns
    seconds."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(800):
        key = i % 31
        acc[key] = acc.get(key, 0.0) + i * 0.5
    rows = [{"t": float(i), "v": (i, i + 1.0)} for i in range(800)]
    acc[0] += len(rows)
    a = _ARRAY
    for _ in range(4):
        a = a * 1.0001 + 0.5
    return time.perf_counter() - t0


_ARRAY = np.linspace(0.0, 1.0, 50_000)


class HostSpeed:
    """Samples the host's speed on a timer while it is started."""

    def __init__(self, interval=0.2):
        self.interval = interval
        self.samples = []       # (start, end, best of PROBE_ROUNDS probes)
        self._old = None

    def sample(self):
        """Probe now; returns the host's speed relative to nominal."""
        t0 = time.perf_counter()
        best = min(probe() for _ in range(PROBE_ROUNDS))
        self.samples.append((t0, time.perf_counter(), best))
        return PROBE_NOMINAL_S / best

    def _handler(self, signum, frame):
        self.sample()

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def speeds(self):
        return [PROBE_NOMINAL_S / p for _, _, p in self.samples]

    def normalized(self, t0, t1):
        """Seconds at nominal host speed for an op that ran from t0 to t1.
        An op too short to hold a probe takes the speed of the last probe
        before it ended."""
        inside = [s for s in self.samples if t0 <= s[0] and s[1] <= t1]
        spent = sum(b - a for a, b, _ in inside)
        if not inside:
            inside = [s for s in self.samples if s[1] <= t1][-1:]
        if not inside:
            self.sample()
            inside = self.samples[-1:]
        speed = statistics.fmean(PROBE_NOMINAL_S / p for _, _, p in inside)
        return (t1 - t0 - spent) * speed
