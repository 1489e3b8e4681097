"""Record the fixed inputs (`data.json`) and golden stdout digests
(`goldens.json`) from the program as it is now.

    python3 perfbench/record_goldens.py

Runs every pool member of every workload once.  Rerun it only when a
change is meant to alter CLI output or labels, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from worker import import_program, run_job

ROOT = Path(__file__).resolve().parent.parent


def record_data(program):
    groups = program.groups
    disk = [spec for spec, _m in workloads.abelian_group_specs(100)
            if groups.subgroup_lattice(groups.parse_group(spec)).n <= 12]
    lattices = {}
    for spec in workloads.GENS_LATTICES:
        lat = groups.subgroup_lattice(groups.parse_group(spec))
        top = lat.top_index()
        lattices[spec] = {"top": lat.label(top),
                          "proper": [lat.label(i) for i in range(lat.n) if i != top]}
    return {"disk_scan_groups": disk, "gens_lattices": lattices}


def main():
    from click.testing import CliRunner

    program = import_program()
    data = record_data(program)
    workloads.DATA_PATH.write_text(json.dumps(data, indent=1) + "\n")
    goldens = {}
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    runner = CliRunner()
    try:
        for workload in workloads.WORKLOADS:
            jobs = workloads.build_jobs(workload, 0, workdir, program, full_pool=True)
            os.chdir(workdir)
            for job in jobs:
                code, stdout, _table, failure = run_job(job, runner, program)
                goldens[job.key] = workloads.digest(code, stdout)
                if failure is not None:
                    print(f"{job.key}: {failure}", file=sys.stderr)
            print(f"{workload}: {len(jobs)} jobs recorded", file=sys.stderr)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDENS_PATH.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
