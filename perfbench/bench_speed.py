"""Machine-speed probe: a fixed kernel timed next to every timed pass.

The benchmark was sized on a 2-core VM shared with other tenants, whose
CPU speed flips between a fast and a slow state (up to ~1.9x apart)
every few seconds to minutes; process CPU time tracks wall time there,
so the swings are speed, not descheduling.  Plain wall-clock rates of
the same code then spread by 20-70 % from run to run.

So each timed pass is bracketed by two calls of :func:`probe`, which
times a fixed mix of the work the workloads do (JSON encode/decode,
hashing, sorting, an interpreted loop, numpy vector arithmetic) that no
change to the program can touch.  The pass's durations are multiplied by
``REFERENCE_S / mean(probe before, probe after)``: they become the
durations the pass would have had on a machine that runs the probe in
``REFERENCE_S``.  Bracketing each pass, rather than dividing a whole run
by one figure, follows the speed as it flips within a run.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

# The probe's time on the 2-core VM the benchmark was sized on, in its
# slow state (about 1.5 ms in its fast one); the unit every scaled time
# is expressed in.
REFERENCE_S = 0.0028

_DOCUMENT = {f"k{i}": {"a": list(range(i % 17)), "b": "x" * (i % 31), "c": i * 0.5} for i in range(400)}
_VECTOR = np.arange(20000, dtype=np.float64)
_RUNS = 9


def _kernel() -> float:
    """Seconds one run of the fixed kernel takes."""
    start = time.perf_counter()
    text = json.dumps(_DOCUMENT, sort_keys=True)
    decoded = json.loads(text)
    hashlib.sha256(text.encode()).hexdigest()
    sorted(decoded.items(), key=lambda item: item[0])
    total = 0
    for i in range(3000):
        total += i * i
    float((np.sin(_VECTOR) * _VECTOR).sum())
    return time.perf_counter() - start


def probe() -> float:
    """The machine's speed now: the median time of several kernel runs.

    Each run takes about 2 ms; the median ignores a run that a burst of
    contention hit.
    """
    return statistics.median(_kernel() for _ in range(_RUNS))


def scale(before: float, after: float) -> float:
    """Factor taking a duration measured between two probes to reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
