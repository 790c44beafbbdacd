"""A fixed reference kernel that tracks how fast the host runs right now.

On a shared host the same call can run 1.5-1.7x slower while neighbouring
tenants are busy, and such phases last from seconds to minutes, so the raw
medians of two sets of runs taken minutes apart disagree by more than any
useful bound.  The kernel below does a fixed mix of the kinds of work declqg
does -- interpreted Python, small matrix products, LAPACK factorisations and
random-generator set-up -- and uses no declqg code, so no change to the
library moves it.  The benchmark times it before and after every set-up and
step and scales the timings that follow by ``NOMINAL_S / kernel time``:
timings are reported at the speed of a host on which the kernel takes
``NOMINAL_S``.  Raw timings stay in the report.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.008
_A = np.random.default_rng(0).standard_normal((24, 24)) / 5.0
_SPD = _A @ _A.T + 24.0 * np.eye(24)


def kernel() -> int:
    s = 0
    for i in range(12_000):
        s += i * i
    m = _A
    for _ in range(150):
        m = _A @ m
        m = m / np.abs(m).max()
    for _ in range(25):
        np.linalg.cholesky(_SPD)
        np.linalg.eigvalsh(_SPD)
    for i in range(100):
        np.random.default_rng([7, i]).standard_normal(64)
    return s


def kernel_samples(repeats: int = 5) -> list[float]:
    """Wall times of ``repeats`` back-to-back runs of the kernel."""
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        samples.append(perf_counter() - t0)
    return samples


def scales(calibrations: list[list[float]]) -> list[float]:
    """Scale factor for the timings between calibrations ``i`` and ``i + 1``.

    ``NOMINAL_S`` over the median kernel time of the two calibrations that
    bracket the timed work, so the factor follows the host's speed while the
    work ran.  The runner calibrates once more after its last timed call.
    """
    out = []
    for i in range(len(calibrations)):
        near = calibrations[i:i + 2]
        out.append(NOMINAL_S / statistics.median(x for c in near for x in c))
    return out
