"""Benchmark of the mackeydim CLI: closed-loop job lists, one client, one
process per pass.  See README.md for the workloads and metrics.

    python3 perfbench/run.py --workload disk-scan --seed 1 --seconds 25 --trace 0

Each pass is a fresh interpreter (`worker.py`) that sets up, runs the whole
seeded job list once and checks every answer.  Passes repeat until
--seconds have elapsed (at least one pass).  With --trace 0 every pass is
untraced and the end-to-end metrics are printed; with --trace 1 one
untraced pass is followed by traced passes and the per-layer metrics are
printed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0
MIN_SETUPS = 11  # untraced runs add set-up-only interpreters up to this many


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` list, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_worker(workload, seed, trace, workdir, deadline, max_jobs, setup_only=False):
    """Run one pass in a child interpreter; return (setup_s, record).

    Each pass gets a new directory, removed as soon as the pass ends: on a
    filesystem mounted with `discard`, truncating or deleting files that
    have already been written back costs ~0.1 s each.
    """
    passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    out = passdir / "record.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--workdir", str(passdir), "--out", str(out)]
    if max_jobs is not None:
        cmd += ["--max-jobs", str(max_jobs)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(passdir, ignore_errors=True)
    return record["ready_monotonic"] - started, record


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(workload, seed, seconds, trace, max_jobs=None):
    """Run passes for about `seconds`; return (result dict, printable lines)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    plain, traced = [], []
    try:
        while not plain or (not trace and time.monotonic() - started < seconds):
            plain.append(run_worker(workload, seed, False, workdir, deadline, max_jobs))
        while trace and (not traced or time.monotonic() - started < seconds):
            traced.append(run_worker(workload, seed, True, workdir, deadline, max_jobs))
        setups = [s for s, _r in plain]
        while not trace and len(setups) < MIN_SETUPS:
            setups.append(run_worker(workload, seed, False, workdir, deadline,
                                     max_jobs, setup_only=True)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for _s, r in plain + traced]
    if any(r["wrappers_during_jobs"] for _s, r in plain):
        raise RuntimeError("an untraced pass ran with tracer wrappers installed")
    attempted = sum(r["jobs"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    wrong = [f for f in failures if f["wrong"]]
    jobs = records[0]["jobs"]
    # each job's fastest pass, then percentiles over the jobs: interference
    # from other processes only ever adds time, and a section-types run has
    # room for just two passes
    job_ms = [min(ms) for ms in zip(*(r["job_ms"] for _s, r in plain))]
    wall = statistics.median(r["wall_s"] for _s, r in plain)

    lines = [f"perfbench {workload} seed={seed} trace={trace}: "
             f"{len(plain)} untraced + {len(traced)} traced pass(es), "
             f"{jobs} jobs per pass, {attempted} attempted, {len(failures)} failed, "
             f"{len(wrong)} wrong"]
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "job_p50_ms": percentile(job_ms, 50),
            "job_p90_ms": percentile(job_ms, 90),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _s, r in plain),
            "pass_rate": (attempted - len(failures)) / attempted,
        }
        walls = ", ".join(f"{r['wall_s']:.3f}" for _s, r in plain)
        counts = {"setup_s": f"{len(setups)} set-ups", "wall_s": f"passes: {walls}",
                  "job_p50_ms": f"{len(job_ms)} jobs x {len(plain)} passes",
                  "job_p90_ms": f"{len(job_ms)} jobs x {len(plain)} passes",
                  "peak_rss_mb": f"{len(plain)} passes", "pass_rate": f"{attempted} jobs"}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_units("end_to_end").items()}
        lines += [f"  {n:<12} {m['value']:>12.4f} {m['unit']:<6} ({counts[n]})"
                  for n, m in metrics.items()]
        lines.append(f"  {'fail_rate':<12} {len(failures) / attempted:>12.4f} ratio  "
                     f"({len(failures)}/{attempted} jobs)")
    else:
        units = metric_units("per_layer")
        layers = [r["layers"] for _s, r in traced]
        values = {name: statistics.median(l.get(name, 0) for l in layers) for name in units}
        values["trace_overhead_ratio"] = (
            statistics.median(r["wall_s"] for _s, r in traced) / wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        lines += [f"  {n:<42} {m['value']:>14.4f} {m['unit']}" for n, m in metrics.items()]
    distinct = {}
    for f in failures:
        distinct.setdefault(f["key"], f)
    for key, f in sorted(distinct.items()):
        kind = "WRONG" if f["wrong"] else "failed"
        lines.append(f"  {kind} [{key}] exit={f['exit']} exception={f['exception']}: "
                     f"{f['message']}")
    result = {"correct": not wrong, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--max-jobs", type=int, default=None,
                    help="run only the first N jobs of each pass (smoke tests)")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running pass is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mackeydim" / "cli.py").is_file():
        print(f"perfbench: no mackeydim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result, lines = run(name, args.seed, args.seconds, bool(args.trace),
                                args.max_jobs)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
