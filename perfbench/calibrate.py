"""Host-speed calibration: a fixed computation timed next to each measurement.

The VM this benchmark was tuned on shares its host, and the host's speed
drifts by up to a factor of two, over seconds and over minutes (see the
README). CPU time follows wall time, so the VM is not waiting for a CPU; the
whole machine runs slower. A raw command time then says more about the host
than about the program. The benchmark therefore times ``calibrate()`` right
before and right after every measured command, and reports the command's time
rescaled to the reference speed:

    t * REF_S / mean(calibration before, calibration after)

The calibration uses numpy and the interpreter the way the workloads do and
never imports qbeats, so a change to the program cannot change it. It does
not follow the host exactly, but in nine-minute worker traces cut into 30 s
runs it cut the spread of the run medians from 0.21 to 0.05 on
echo-octalin and from 0.18 to 0.08 on pergate-octalin-long.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.40  # seconds the calibration takes at the reference speed, about its median here


def calibrate() -> float:
    """Seconds taken by the fixed calibration computation.

    Four parts of about 0.1 s each, one per kind of work the workloads do:
    small matrix products (numpy call overhead), array exponentials, plain
    interpreter arithmetic, and streaming through a 2 MB buffer (memory
    bandwidth; small enough not to raise a worker's peak RSS).
    """
    start = time.perf_counter()
    angle = np.linspace(0.1, 1.6, 16).reshape(4, 4)
    a = (np.cos(angle) + 1j * np.sin(2 * angle)) / 4.0
    m = np.eye(4, dtype=complex)
    acc = 0.0
    for _ in range(14_000):
        m = m @ a
        m = m / np.abs(m).max()
    acc += float(np.abs(np.trace(m)))
    x = np.linspace(0.0, 1.0, 8_000)
    for k in range(400):
        acc += float(np.abs(np.exp(1j * k * x)).sum())
    total = 0.0
    for i in range(700_000):
        total += i * 0.5 - (i >> 3)
    buf = np.ones(262_144)
    for _ in range(900):
        np.multiply(buf, 1.0000001, out=buf)
    acc += float(buf.sum()) + total
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise RuntimeError("calibration computed a non-finite result")
    return elapsed


def rescaled(times: list[float], cals: list[float]) -> list[float]:
    """``times[i]``, measured between ``cals[i]`` and ``cals[i + 1]``, at the reference speed."""
    if len(cals) != len(times) + 1:
        raise ValueError("need one calibration before and one after every time")
    return [t * REF_S / (0.5 * (before + after))
            for t, before, after in zip(times, cals, cals[1:])]
