"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-sqrt --seed 1 --seconds 8 --trace 0

Run it from the root of a source checkout: it imports the program from
``src/`` and nothing else.  The workload runs in one single-threaded
worker process as a closed loop; every unit is checked before the next
one starts.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer
metrics from a traced run.  Lines before it give every metric with its
unit, the failure share and the environment.  Results, spans and the
deterministic counters of each seed are kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (lives next to this file)

SETUP_PROBES = 2       # extra fresh interpreters timed to set-up; the worker is one more
DEADLINE_S = 170.0     # the whole run ends within this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _spawn(args: list[str], timeout: float) -> dict:
    """Run a worker in its own process group; return its last stdout line as JSON."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out-dir", str(OUT),
           "--launched-at", repr(perf_counter())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        **{pkg: importlib.metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def _git_commit():
    """The checkout's commit, read from .git without running git; None when
    the checkout is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                return loose.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next((ln.split()[0] for ln in packed if ln.endswith(" " + name)), None)
        return ref
    except OSError:
        return None


def _check_counters(workload: str, seed: int, counters: dict) -> None:
    """Counters must repeat exactly for a seed, whichever run made them."""
    if not counters:
        return  # a unit among the counted ones raised; the run is already incorrect
    path = OUT / "counters" / f"{workload}-seed{seed}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        drift = {k: (before.get(k), v) for k, v in counters.items() if before.get(k) != v}
        drift.update({k: (v, None) for k, v in before.items() if k not in counters})
        if drift:
            raise BenchError(f"deterministic counters drifted for {workload} seed {seed}: "
                             + ", ".join(f"{k} was {a!r}, now {b!r}" for k, (a, b) in sorted(drift.items())))
    else:
        path.write_text(json.dumps(counters, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    start = perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "udgprune" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}: run from a source checkout", file=sys.stderr)
        return 2
    for sub in ("tmp", "traces", "results", "counters"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        probes = [] if args.trace else [_spawn(common + ["--setup-only"], 30.0) for _ in range(SETUP_PROBES)]
        res = _spawn(common, DEADLINE_S - (perf_counter() - start))
        probes.append(res)
        counters = res["counters"]
        _check_counters(args.workload, args.seed, counters)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        computed = {**metrics.per_layer(res), **counters}
        wanted = spec["per_layer"]
    else:
        setup = statistics.median(p["setup_scaled_s"] for p in probes)
        computed = metrics.end_to_end(res["scaled_s"], setup, res["peak_rss_mb"])
        wanted = spec["end_to_end"]
    report = {m["name"]: {"value": float(computed.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    correct = not res["unexpected"]
    summary = {
        "workload": args.workload, "trace": args.trace, "units": len(res["unit_s"]),
        "attempted": res["attempted"], "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "loop_wall_s": res["loop_wall_s"],
    }
    if not args.trace:
        summary.update(
            trial_ms_p90=metrics.p90_ms(res["scaled_s"]),
            raw={k: v for k, v in metrics.end_to_end(
                res["unit_s"], statistics.median(p["setup_s"] for p in probes), res["peak_rss_mb"]
            ).items() if k != "peak_rss_mb"},
            raw_trial_ms_p90=metrics.p90_ms(res["unit_s"]),
            calibration_kernel_ms_median=statistics.median(res["kernel_s"]) * 1e3,
            setup_samples_s=[p["setup_s"] for p in probes],
            setup_kernel_s=[p["setup_kernel_s"] for p in probes],
            unit_s=res["unit_s"],
        )
    record = {"environment": environment(args.seed), "summary": summary, "metrics": computed,
              "counters": counters, "failures": res["failures"][:50]}
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"units {summary['units']}  attempted {res['attempted']}  failed {res['failed']}")
    for name, value in sorted(computed.items()):
        print(f"  {name:40s} {value:>16.6g} {units.get(name, '')}")
    if summary.get("trial_ms_p90") is not None:
        print(f"  {'trial_ms_p90':40s} {summary['trial_ms_p90']:>16.6g} ms")
    for name, value in sorted(summary.get("raw", {}).items()):
        print(f"  {'raw ' + name:40s} {value:>16.6g} {units.get(name, '')}  (not speed-corrected)")
    print(f"  {'failed_frac':40s} {summary['failed_frac']:>16.6g} ratio  "
          f"({res['failed']} of {res['attempted']} units)")
    print("  environment " + json.dumps(record["environment"]))
    for msg in res["unexpected"][:5]:
        print("unexpected failure: " + msg, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
