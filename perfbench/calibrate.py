"""Machine-speed calibration for a shared host.

On a VM that shares its cores, the speed of all code changes by up to 2x
between states that last from well under a second to minutes, with no CPU
steal to show for it.  A fixed kernel that uses no heatflat code is timed
all through every timed round, and each round's time is divided by the
kernel's mean speed factor over that round.

The kernel has four components, one per kind of work the workloads do:
Python float loops, numpy complex vector steps, mpmath at 582 digits and
long-double numpy exp.  Each kind slows by a different factor, so each
component is normalised by its own reference time (REFERENCE_S, about its
median time on a 2-core shared VM), and a round's factor is the mean ratio
of the components that do its workload's kind of work (``Workload.kinds``),
whatever their lengths.  Scaled times are seconds on a machine where every
component takes its reference time.

The kernel is sampled at the ends of each round and, through a SIGALRM
timer, every INTERVAL_S inside it, so that long units are tracked too.  The
time spent in the sampler is taken out of the units' times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import mpmath
import numpy as np

INTERVAL_S = 0.3
# reference time of each component, in seconds
REFERENCE_S = {"python": 0.0105, "vector": 0.0145, "mpmath": 0.016, "longdouble": 0.0135}

_Z = np.exp(1j * np.linspace(0.0, 6.0, 9216))
_T = np.linspace(0.01, 1.0, 20000).astype(np.longdouble)
_MP = mpmath.MPContext()   # private context: the sampler never touches mpmath.mp
_MP.dps = 582


def _python() -> float:
    s = 0.0
    for i in range(90000):
        s += math.sqrt(i) * 0.5
    return s


def _vector() -> np.ndarray:
    acc, wp = np.zeros_like(_Z), np.ones_like(_Z)
    for _ in range(140):
        acc += np.abs(wp) * 0.3
        wp = wp * _Z
        wp = np.where(np.isfinite(wp), wp, 1.0)
    return acc


def _mpmath():
    return _MP.fsum(_MP.exp(-_MP.mpf(k) / 7) for k in range(60))


def _longdouble():
    return np.exp(-_T ** -1.5).sum()


COMPONENTS = {"python": _python, "vector": _vector, "mpmath": _mpmath, "longdouble": _longdouble}


def kernel() -> dict:
    """Wall time of each component for one pass of the kernel."""
    out = {}
    with np.errstate(all="ignore"):
        for name, fn in COMPONENTS.items():
            t0 = time.perf_counter()
            fn()
            out[name] = time.perf_counter() - t0
    return out


def ratios(sample: dict) -> dict:
    """Each component's time over its reference time: 1 on the reference machine."""
    return {n: sample[n] / REFERENCE_S[n] for n in REFERENCE_S}


def factor(samples: list, kinds=tuple(REFERENCE_S)) -> float:
    """Slowness of the machine over ``samples``: the mean ratio of the ``kinds`` components."""
    return statistics.fmean(r[n] for r in samples for n in kinds)


class Sampler:
    """Kernel passes at round ends and every INTERVAL_S in between.

    ``samples`` holds the component ratios of every pass; ``spent`` the wall time
    spent in the passes, which callers subtract from what they time.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        t0 = time.perf_counter()
        try:
            self.samples.append(ratios(kernel()))
        finally:
            self.spent += time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:   # a pass that outlasts the interval is not re-entered
            return
        self._busy = True
        try:
            self.sample()
        except Exception:  # never raise into the code being timed
            pass
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
