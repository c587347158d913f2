"""Machine-speed calibration for the end-to-end timings.

The benchmark shares its machine with other tenants, and the speed a
single Python thread gets drifts by tens of percent over tens of seconds.
Every timed interval is therefore bracketed by a fixed calibration loop that
does the same kind of work as the simulator's hot paths (SHA-256 over digest
pairs, dict-keyed sparse tree levels, small tuples) but shares no code with
it.  A timing is rescaled by ``REFERENCE_S / calibration time`` to what it
would read on the reference machine speed, so that run-to-run drift of the
machine cancels while a change to the simulator does not.
"""

from __future__ import annotations

from hashlib import sha256
from time import perf_counter

#: Wall time of one calibration pass on a quiet 2-vCPU VM with CPython
#: 3.11 (the reference speed), so that rescaled timings stay in seconds.
REFERENCE_S = 0.008

_DEPTH = 64
_LEAVES = 120


def _work() -> bytes:
    defaults = [bytes(32)]
    for _ in range(_DEPTH):
        defaults.append(sha256(defaults[-1] + defaults[-1]).digest())
    root = defaults[-1]
    for slot in range(_LEAVES):
        level = {slot: sha256(slot.to_bytes(8, "big")).digest(),
                 slot + 3: sha256(root).digest()}
        path = []
        for i in range(_DEPTH):
            parents = {}
            for idx in level:
                p = idx >> 1
                if p not in parents:
                    parents[p] = sha256(level.get(2 * p, defaults[i]) + level.get(2 * p + 1, defaults[i])).digest()
            # sibling lookup per level, as proving a slot does
            path.append(((slot >> i) ^ 1, level.get((slot >> i) ^ 1, defaults[i])))
            level = parents
        root = level[0]
    return root


def calibration_s() -> float:
    """Wall time of one pass of the calibration loop."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
