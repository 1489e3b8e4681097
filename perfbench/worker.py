"""One pass of a workload in a fresh interpreter: set up, run every job once
back to back (closed loop, one client), check every answer, write a JSON
record.  `run.py` starts one worker per pass; see README.md.

    python3 perfbench/worker.py --workload disk-scan --seed 1 --trace 0 \
        --workdir DIR --out FILE [--max-jobs N] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import mackeydim from this checkout's src, never from elsewhere."""
    if not (SRC / "mackeydim" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no mackeydim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mackeydim
    import mackeydim.cli

    if Path(mackeydim.__file__).resolve().parent != (SRC / "mackeydim").resolve():
        raise SystemExit(f"perfbench: imported mackeydim from {mackeydim.__file__}")
    return mackeydim


def run_job(job, runner, program):
    """Run one job; return (exit code, stdout bytes, oracle table or None,
    failure or None).

    The exit code is the CLI command's.  A failure of the oracle half alone
    leaves it 0.
    """
    import click

    res = runner.invoke(program.cli.main, job.args, standalone_mode=False)
    exc = res.exception
    if exc is not None:
        exit_code = exc.exit_code if isinstance(exc, click.ClickException) else 1
        cause = exc.__cause__ or exc.__context__
        name = type(exc).__name__
        if cause is not None:
            name += f"({type(cause).__name__})"
        return exit_code, res.stdout_bytes, None, {"exit": exit_code, "exception": name,
                                                   "message": str(exc)[:200]}
    table = None
    if job.poset_file is not None:
        try:
            with open(job.poset_file) as fh:
                P = program.posets.parse_poset_text(fh.read())
            table = program.oracle.ext_table_oracle(P)
        except Exception as err:  # recorded as a failed job, never hidden
            return 0, res.stdout_bytes, None, {"exit": 0, "exception": type(err).__name__,
                                               "message": str(err)[:200]}
    return 0, res.stdout_bytes, table, None


def run_pass(workload, seed, trace, workdir, max_jobs=None, setup_only=False):
    """Set up and run one pass in this interpreter; return its record.

    With setup_only the record holds only the time the first job was ready.
    """
    program = import_program()
    from click.testing import CliRunner

    import workloads
    from tracer import Tracer, count_wrappers

    jobs = workloads.build_jobs(workload, seed, workdir, program)
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    goldens = workloads.load_goldens()
    runner = CliRunner()
    os.chdir(workdir)
    ready = time.monotonic()
    if setup_only:
        return {"ready_monotonic": ready}

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    wrappers = count_wrappers()

    outcomes = []
    t_start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("cli"):
                out = run_job(job, runner, program)
        else:
            out = run_job(job, runner, program)
        outcomes.append((time.perf_counter() - t0, out))
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.uninstall()

    job_ms = []
    failures = []
    for job, (dt, (code, stdout, table, failure)) in zip(jobs, outcomes):
        job_ms.append(dt * 1000.0)
        reason = workloads.check_answer(job, code, stdout, table, goldens)
        if reason is not None:
            failure = failure or {"exit": code, "exception": None, "message": ""}
            message = f"{reason}; {failure['message']}" if failure["message"] else reason
            failure = {**failure, "message": message, "wrong": True}
        if failure is not None:
            failures.append({"key": job.key, "wrong": False, **failure})
    return {
        "ready_monotonic": ready,
        "wall_s": wall,
        "job_ms": job_ms,
        "jobs": len(jobs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wrappers_during_jobs": wrappers,
        "layers": tracer.flat() if tracer is not None else None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-jobs", type=int, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out).resolve()
    record = run_pass(args.workload, args.seed, bool(args.trace),
                      Path(args.workdir).resolve(), args.max_jobs, args.setup_only)
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
