"""Per-op budget, machine-speed reference, and the op-time percentiles.

The budget is an interval timer (``ITIMER_REAL``) in the worker's only
thread: when it fires, ``OpTimeout`` is raised inside whatever folgerm is
computing.  It derives from ``BaseException`` so that folgerm's own
``except ValueError`` / ``except Exception`` handlers cannot swallow it.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager
from fractions import Fraction


class OpTimeout(BaseException):
    """The op ran past its budget."""


def _raise_timeout(signum, frame):
    raise OpTimeout


@contextmanager
def budget(seconds):
    """Raise ``OpTimeout`` in the body once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def timed(fn, seconds):
    """Run ``fn()`` under the budget: (elapsed, result, error).

    ``error`` is ``"timeout"`` when the budget fired, the exception's type
    name when ``fn`` raised, and ``None`` otherwise.
    """
    start = time.perf_counter()
    try:
        with budget(seconds):
            result = fn()
    except OpTimeout:
        return time.perf_counter() - start, None, "timeout"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return time.perf_counter() - start, None, type(exc).__name__
    return time.perf_counter() - start, result, None


def nearest_rank(samples, q):
    """Nearest-rank q-quantile (0 < q <= 1) of (elapsed, failed) samples.

    Every failed op ranks above every completed one, whatever its time.
    """
    if not samples:
        raise ValueError("no samples")
    order = sorted(samples, key=lambda s: (s[1], s[0]))
    return order[max(1, math.ceil(q * len(order))) - 1][0]


def slowest(samples):
    """Highest elapsed time; a stalled op's elapsed time is its budget."""
    return max(s[0] for s in samples)


# Seconds that ``reference()`` takes on the machine the bounds were set on.
REFERENCE_S = 0.0035


def reference():
    """Seconds taken by a fixed pure-Python workload of Fraction and dict work.

    It shares no code with folgerm.  Timed next to every op, it measures how
    fast the machine runs Python at that moment: on a shared machine that
    speed drifted by 10-20 % between runs, by as much as the op times did.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3)
    table = {}
    for i in range(3000):
        key = (i % 37, i % 41)
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start
