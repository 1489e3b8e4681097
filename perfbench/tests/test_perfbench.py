"""Tests of the benchmark itself: smoke runs, seeded inputs, the tracer and
the answer checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

program = worker.import_program()


@pytest.fixture
def in_tmp(tmp_path):
    """worker.run_pass changes directory; put it back afterwards."""
    old = os.getcwd()
    yield tmp_path
    os.chdir(old)


def bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_untraced_and_traced(workload):
    common = ["--workload", workload, "--seed", "3", "--seconds", "0", "--max-jobs", "3"]
    plain = bench(*common, "--trace", "0")
    assert plain["correct"] and plain["attempted"] >= 3
    assert list(plain["metrics"]) == list(run.metric_units("end_to_end"))
    assert all(m["value"] > 0 for m in plain["metrics"].values()
               if m["unit"] in ("s", "ms", "MB"))
    traced = bench(*common, "--trace", "1")
    assert traced["correct"]
    assert list(traced["metrics"]) == list(run.metric_units("per_layer"))
    assert traced["metrics"]["cli.self_s"]["value"] > 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "disk-scan",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    def build(seed, name):
        d = tmp_path / name
        d.mkdir()
        jobs = workloads.build_jobs(workload, seed, d, program)
        files = {p.name: p.read_text() for p in d.iterdir()}
        return [(j.key, j.args) for j in jobs], files

    assert build(7, "a") == build(7, "b")
    if workload == "disk-scan":
        assert build(7, "a2")[0] != build(8, "c")[0]


def test_every_poolable_input_has_a_golden(tmp_path):
    goldens = workloads.load_goldens()
    for workload in workloads.WORKLOADS:
        d = tmp_path / workload
        d.mkdir()
        for job in workloads.build_jobs(workload, 0, d, program, full_pool=True):
            assert job.key in goldens, job.key


def test_defect_poset_is_in_every_generic_ext_run(tmp_path):
    for seed in range(3):
        d = tmp_path / str(seed)
        d.mkdir()
        keys = [j.key for j in workloads.build_jobs("generic-ext", seed, d, program)]
        assert "gldim-ia poset defect-14" in keys


def test_corpus_sizes():
    assert len(workloads.abelian_group_specs(200)) == 389
    assert len(workloads.load_data()["disk_scan_groups"]) == 119


def test_checks_reject_a_changed_answer(tmp_path):
    goldens = workloads.load_goldens()
    jobs = workloads.build_jobs("disk-scan", 0, tmp_path, program)[:2]
    for job in jobs:
        code, stdout, table, failure = worker.run_job(job, CliRunner(), program)
        assert failure is None
        assert workloads.check_answer(job, code, stdout, table, goldens) is None
        assert workloads.check_answer(job, code, stdout + b" ", table, goldens)
        # a discrepancy the CLI reports itself: same stdout, exit 4
        assert workloads.check_answer(job, 4, stdout, table, goldens)


def test_discrepancy_exit_is_a_wrong_answer(in_tmp, monkeypatch):
    """`scan monotonicity` exits 4 on a violation; the run must not pass."""
    real = program.mackey.scan_monotonicity

    def violating(G):
        report = real(G)
        return {**report, "violations": [["planted"]]}

    monkeypatch.setattr(program.mackey, "scan_monotonicity", violating)
    record = worker.run_pass("disk-scan", 1, False, in_tmp, max_jobs=2)
    assert [f["exit"] for f in record["failures"]] == [4, 4]
    assert all(f["wrong"] and f["exception"] == "DiscrepancyExit"
               for f in record["failures"])


def _snapshot():
    return {(m.__name__, k): id(v) for m in tracer.program_modules()
            for k, v in vars(m).items()}


def test_tracer_rebinds_copies_and_restores_everything():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert tracer.count_wrappers() > 0
        # mackey imports quotient_invariants by name: the copy is traced too
        assert program.mackey.quotient_invariants is program.groups.quotient_invariants
        assert getattr(program.mackey.quotient_invariants, tracer.MARK) == \
            "groups.quotient_invariants"
        program.mackey.quotient_invariants(
            program.groups.full_subgroup(program.groups.parse_group("C6")),
            program.groups.trivial_subgroup(program.groups.parse_group("C6")))
    finally:
        t.uninstall()
    assert tracer.count_wrappers() == 0
    assert _snapshot() == before
    assert t.flat()["groups.quotient_invariants.calls"] == 1


def test_untraced_pass_has_no_wrappers(in_tmp):
    record = worker.run_pass("disk-scan", 1, False, in_tmp, max_jobs=3)
    assert record["wrappers_during_jobs"] == 0 and record["layers"] is None


def test_self_times_fit_in_traced_wall(in_tmp):
    record = worker.run_pass("disk-scan", 1, True, in_tmp, max_jobs=20)
    layers = record["layers"]
    assert record["wrappers_during_jobs"] > 0
    assert tracer.count_wrappers() == 0
    assert 0 < layers["self_s_total"] <= record["wall_s"]
    assert layers["transfer.enumerate_disk_like.calls"] == 20
    assert layers["transfer.systems_enumerated"] > 0
