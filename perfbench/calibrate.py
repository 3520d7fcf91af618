"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared machine the speed of the same code drifts by tens of
percent over minutes, so a raw wall time says as much about the
neighbours as about the program.  The benchmark therefore times this
fixed kernel, which shares no code with the program, next to the units it
measures, and reports each unit's wall time scaled by REF_S / (kernel
time around that unit): the unit's time at the speed the machine had
when the kernel took REF_S.  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.050  # nominal kernel time; sets the scale of corrected timings


def kernel_s() -> float:
    """Seconds taken by small numpy operations driven from an interpreter
    loop, the mix of work every layer of the program does.  Of the kernels
    tried against pieces of each workload on a drifting host, this one's
    time tracked theirs most closely."""
    p = np.random.default_rng(0).random((40, 2))
    rows = np.arange(5)
    acc = 0
    for k in range(1050):
        if k == 50:  # the first rounds pay one-off costs; time the rest
            start = perf_counter()
        d = p[:, None, :] - p[None, :, :]
        near = np.einsum("ijk,ijk->ij", d, d) <= 0.3
        acc += int(near[np.ix_(rows, rows)].sum())
    return perf_counter() - start


def scaled(raw_s, kernel_times_s):
    """``raw_s`` at the reference speed, given the kernel times around it."""
    return raw_s * REF_S * len(kernel_times_s) / sum(kernel_times_s)
