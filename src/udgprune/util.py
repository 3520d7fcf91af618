"""Shared plumbing: seed derivation, confidence intervals, CSV text, atomic writes."""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

__all__ = ["derived_seed", "wilson_interval", "csv_text", "atomic_write_text"]


def derived_seed(base: int, *key: int) -> int:
    """Deterministic 64-bit child seed for (base, key...) via SeedSequence.

    Used to hand independent streams to trials and workers; reproducing a
    single trial only needs its derived seed.
    """
    state = np.random.SeedSequence((base,) + tuple(key)).generate_state(1, np.uint64)
    return int(state[0])


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    z = 1.959963984540054  # the two-sided 95% normal quantile
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(columns, rows) -> str:
    """CSV with a header line: bools as true/false, floats by ``repr`` (so
    they read back to the same float), anything else by ``str``."""
    lines = [",".join(columns)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via a temp file + rename so readers never see
    a partial file and failures leave no output behind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
