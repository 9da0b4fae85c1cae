"""Machine-speed calibration for the timed metrics.

On a shared virtual machine the speed of pure-Python code moves by up to
2.5x, in phases from a second to several minutes long, whatever the
program does, so no raw time repeats within a run-to-run bound.
``calibration`` is a fixed computation of the benchmark's own
(series-free oracle arithmetic, no package code, garbage collection off)
whose time tracks the machine's current speed.  ``scaled`` converts a
measured time to the time it would take when the calibration takes
``REFERENCE_S``, about its median on the reference machine.  The
calibration runs just before and just after every operation; an
operation is scaled by the mean of the sixteen calibrations nearest to it
(``scaled_sequence``), and set-up by the median of the calibrations
between its interpreters.

A program that leaves threads busy between operations would slow the
calibration too and hide part of its own cost; the raw times stay in the
run's record for that reason.
"""

from __future__ import annotations

import cmath
import gc
import time

import oracles

REFERENCE_S = 2e-3
NEIGHBOURS = 8
_ORACLE = oracles.MemberOracle(oracles.SelfMap((0.3 + 0.2j, -0.5j), True), 0.7)
_POINTS = [0.9 * cmath.exp(1j * k) for k in range(600)]


def calibration() -> float:
    """Seconds taken by the fixed calibration computation, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for z in _POINTS:
            _ORACLE.weighted_schwarzian(z)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` at reference speed, given the calibration's time then."""
    return seconds * REFERENCE_S / calibration_s


def scaled_sequence(times: list[float], calibrations: list[float]) -> list[float]:
    """Consecutive operations' times at reference speed.

    ``calibrations[i]`` is the mean of the two calibrations around
    operation i.  Each time is scaled by the mean of that figure over the
    NEIGHBOURS operations nearest to it in sequence: an operation of
    seconds spans many switches of speed, which two instants around it
    misjudge, while the operations near a short one ran at its speed."""
    n = len(times)
    out = []
    for i, seconds in enumerate(times):
        lo = max(0, min(i - NEIGHBOURS // 2, n - NEIGHBOURS))
        window = calibrations[lo:lo + NEIGHBOURS]
        out.append(scaled(seconds, sum(window) / len(window)))
    return out
