"""One workload process: set up, run the closed loop, check every unit.

Started by `run.py`, which pins BLAS and OpenMP to one thread before this
interpreter starts.  ``--launched-at`` is the launcher's perf_counter
just before it started this process (CLOCK_MONOTONIC is shared between
processes), so set-up time covers interpreter start, imports and the
warm-up unit.  Untraced runs bracket every quarter second of unit time
with the calibration kernel (see `calibrate`), between the program's calls
and outside the unit timers.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import calibrate  # noqa: E402
import spans  # noqa: E402
import udgprune  # noqa: E402
import workloads  # noqa: E402
from checks import same  # noqa: E402

CALIBRATE_EVERY_S = 0.25  # unit time between two runs of the calibration kernel


def _run_unit(wl, call, inp):
    try:
        return wl.run(call, inp), None
    except Exception:
        return None, "unit raised: " + traceback.format_exc(limit=3)


class _CalibratedTimer:
    """Times the units of an untraced run and speed-corrects them.

    The calibration kernel runs once a quarter second of unit time has
    passed since it last ran, at the next boundary between two program
    calls, so long units are corrected piece by piece.  Its own time is
    left out of the unit's.  Each piece of unit time is scaled by the
    kernel times just before and just after it.
    """

    def __init__(self):
        self.before = calibrate.kernel_s()
        self.kernel_s = [self.before]
        self.pieces = []   # (unit index, raw seconds) since the kernel last ran
        self.pending = 0.0
        self.scaled = []

    def run(self, wl, k, inp):
        """Run unit ``k``; return its output, error and raw time."""
        self.scaled.append(0.0)
        self.raw, self.k = 0.0, k
        self.start = perf_counter()
        out, err = _run_unit(wl, self.call, inp)
        self._piece()
        if self.pending >= CALIBRATE_EVERY_S:
            self.calibrate()
        return out, err, self.raw

    def call(self, name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if self.pending + perf_counter() - self.start >= CALIBRATE_EVERY_S:
                self._piece()
                self.calibrate()
                self.start = perf_counter()

    def _piece(self):
        dt = perf_counter() - self.start
        self.pieces.append((self.k, dt))
        self.raw += dt
        self.pending += dt

    def calibrate(self):
        """Run the kernel and scale the pieces since its last run."""
        if not self.pieces:
            return
        after = calibrate.kernel_s()
        for k, dt in self.pieces:
            self.scaled[k] += calibrate.scaled(dt, [self.before, after])
        self.kernel_s.append(after)
        self.before, self.pieces, self.pending = after, [], 0.0


def _plain(wl, inp):
    t0 = perf_counter()
    out, err = _run_unit(wl, spans.direct, inp)
    return out, err, perf_counter() - t0


def _traced(wl, tracer, k, inp):
    tracer.begin_unit(k)
    out, err = _run_unit(wl, tracer.call, inp)
    return out, err, tracer.end_unit()


def _check_unit(wl, inp, out, count):
    try:
        fails, counts = wl.check(inp, out, count)
        return list(fails), counts
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3)], {}


def _check_repeat(first, out):
    """A repeated input's unit, against the first unit on that input."""
    return ([], {}) if same(out, first) else (["output differs from an earlier unit on the same input"], {})


def _loop(wl, args) -> dict:
    """The closed loop: run, time and check units until the time and the
    unit floors are both met."""
    tracer = spans.Tracer() if args.trace else None
    # a traced run times each unit twice, traced and plain, in alternating order
    floor = max(wl.counter_units, wl.pool, (wl.min_units + 1) // 2 if tracer else wl.min_units)
    timer = None if tracer else _CalibratedTimer()
    unit_s, traced_s, work = [], [], []
    failures, counts, attempted, failed_units = [], [], 0, 0
    firsts = {}  # first output on each pool input
    spent, k, out = 0.0, 0, None
    loop_start = perf_counter()
    while k < floor or spent < args.seconds:
        inp = wl.unit_input(k)
        if tracer and k % 2:
            out, err, dt = _traced(wl, tracer, k, inp)
            plain, plain_err, plain_dt = _plain(wl, inp)
        elif tracer:
            plain, plain_err, plain_dt = _plain(wl, inp)
            out, err, dt = _traced(wl, tracer, k, inp)
        else:
            out, err, dt = timer.run(wl, k, inp)
        repeat = wl.pool and k >= wl.pool
        if err:
            fails, cnt = [err], {}
        elif repeat:
            fails, cnt = _check_repeat(firsts[k % wl.pool], out)
        else:
            fails, cnt = _check_unit(wl, inp, out, k < wl.counter_units)
            if wl.pool:
                firsts[k] = out
        if tracer:
            traced_s.append(dt)
            unit_s.append(plain_dt)
            spent += plain_dt
            work.append(wl.work(out) if out is not None else {})
            if plain_err or not same(plain, out):
                fails = fails + [f"untraced pass differs from the traced one {plain_err or ''}"]
            plain = None
        else:
            unit_s.append(dt)
        spent += dt
        if fails or not repeat:  # a pool input counts once, on its first unit
            attempted += 1
        if fails:
            failed_units += 1
            failures.extend(f"unit {k}: {m}" for m in fails)
        if k < wl.counter_units:
            counts.append(cnt)
        out = None  # free this unit's results before the next timer starts
        k += 1
    if timer:
        timer.calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "unit_s": unit_s,
        "scaled_s": timer.scaled if timer else [],
        "kernel_s": timer.kernel_s if timer else [],
        "attempted": attempted,
        "failed": failed_units,
        "failures": failures,
        "unexpected": [m for m in failures if workloads.KNOWN not in m],
        "counters": wl.counters(counts),
        "peak_rss_mb": peak_rss_mb,
        "loop_wall_s": perf_counter() - loop_start,
    }
    if tracer:
        result.update(traced_s=traced_s, work=work,
                      by_unit=spans.self_time_by_unit(tracer.spans))
        calls: dict[str, int] = {}
        for name, *_ in tracer.spans:
            calls[name] = calls.get(name, 0) + 1
        result["calls"] = calls
        tracer.write(os.path.join(args.out_dir, "traces", f"{args.workload}-seed{args.seed}.jsonl.gz"))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched-at", type=float, required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if Path(udgprune.__file__).resolve().parent != SRC / "udgprune":
        raise ImportError(f"udgprune imported from {udgprune.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[args.workload](args.seed, os.path.join(args.out_dir, "tmp"))
    try:
        wl.warm_up(spans.direct)
        setup_s = perf_counter() - args.launched_at
        setup_kernel_s = calibrate.kernel_s()
        result = {"setup_s": setup_s, "setup_kernel_s": setup_kernel_s,
                  "setup_scaled_s": calibrate.scaled(setup_s, [setup_kernel_s])}
        if not args.setup_only:
            wl.prepare()
            result.update(_loop(wl, args))
    finally:
        wl.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
