"""Seeded job lists and answer checks for the three benchmark workloads.

A job is one `mackeydim` CLI command; on generic-ext it is followed by the
resolution oracle's Ext table of the same poset.  Inputs come from fixed
corpora and from a numbered pool of generator files.  The workload seed
picks the pool members, so every input a seed can produce has a golden
stdout digest in `goldens.json`.  Jobs run in a fixed order
(corpus order, then pool order): with `lru_cache` state carried from job to
job, a seeded order would move per-job latencies more than any input does.

Nothing here imports mackeydim at module level: the worker puts the
checkout's `src` on the path first, and the program modules are passed in.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA_PATH = HERE / "data.json"
GOLDENS_PATH = HERE / "goldens.json"

WORKLOADS = ("disk-scan", "section-types", "generic-ext")

# disk-scan: lattices that `enumerate_disk_like` refuses (> 16 subgroups),
# driven through `gldim-mackey --gens FILE` instead.
GENS_LATTICES = ("C4xC12", "C2xC2xC4", "C2xC2xC2xC3", "C16xC16")
GENS_POOL = 64
GENS_PER_LATTICE = 10

# section-types: full Ext tables over lattices with 100-400 subgroups.
TABLE_GROUPS = ("C2xC2xC2xC2xC2", "C3xC3xC3xC3", "C2xC2xC4xC4")

# generic-ext: subgroup lattices written out as plain posets, so izext takes
# the generic interval-cohomology route instead of the section-type route.
POSET_LATTICES = ("C2xC2xC2xC2xC3", "C3xC3xC3xC3", "C2xC2xC2xC3xC3",
                  "C2xC2xC4xC4", "C2xC2xC2xC2")
# Fixed random graded posets.  They do not depend on the workload seed: the
# oracle's cost on them is heavy-tailed, so a seeded draw moved job_p90_ms by
# up to 40% from seed to seed.
GRADED_COUNT = 200

# Smallest known input on which oracle.ext_table_oracle raises
# "cover is not minimal: kernel meets the top" (izext gives gldim 3).
DEFECT_COVERS = (
    "p0<p1,p2,p3,p4; p1<p5,p7; p2<p6,p8; p3<p7; p4<p8; p5<p9,p10,p11,p12; "
    "p6<p9,p10; p7<p9,p10,p12; p8<p10,p11; p9,p10,p11,p12<p13"
)


@dataclass
class Job:
    """One CLI command; `key` names its input independently of the seed."""

    key: str
    kind: str
    args: list
    expect: dict = field(default_factory=dict)
    poset_file: str | None = None  # generic-ext: input of the oracle half


# ---------------------------------------------------------------------------
# Group specs, computed without the program
# ---------------------------------------------------------------------------


def factorize(n):
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def spec_of(factors):
    """`C..xC..` with prime-power factors sorted by (p, e), as the CLI prints."""
    return "x".join(f"C{p**e}" for p, e in sorted(factors)) or "C1"


def abelian_group_specs(max_order):
    """Every abelian group of order <= max_order, as (spec, factor count)."""
    out = []
    for n in range(1, max_order + 1):
        combos = [[]]
        for p, e in factorize(n):
            combos = [c + [(p, a) for a in part]
                      for c in combos for part in _partitions(e)]
        out += [(spec_of(c), len(c)) for c in combos]
    return out


def factor_count(spec):
    """Number of prime-power cyclic factors of a `C..xC..` spec."""
    return sum(len(factorize(int(t[1:]))) for t in spec.split("x"))


def cyclic_prime_power_exponent(spec):
    """n when spec is C_{p^n} (C1 gives 0), else None."""
    if "x" in spec:
        return None
    f = factorize(int(spec[1:]))
    if len(f) > 1:
        return None
    return f[0][1] if f else 0


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def gens_pool_entry(lattice_spec, proper_labels, index):
    rng = random.Random(f"gens/{lattice_spec}/{index}")
    return rng.sample(proper_labels, rng.randint(1, 4))


def graded_poset_text(index):
    """Random graded poset: a bottom, 2-4 ranks of width 3-6, a top."""
    rng = random.Random(f"graded/{index}")
    widths = [1] + [rng.randint(3, 6) for _ in range(rng.randint(2, 4))] + [1]
    ranks = []
    n = 0
    for w in widths:
        ranks.append(list(range(n, n + w)))
        n += w
    covers = set()
    for lo, hi in zip(ranks, ranks[1:]):
        for b in hi:
            below = [a for a in lo if rng.random() < 0.5] or [rng.choice(lo)]
            covers.update((a, b) for a in below)
        for a in lo:
            if not any((a, b) in covers for b in hi):
                covers.add((a, rng.choice(hi)))
    labels = [f"p{i}" for i in range(n)]
    return _poset_text(labels, sorted(covers))


def defect_poset_text():
    covers = []
    for part in DEFECT_COVERS.split(";"):
        lo, hi = part.split("<")
        covers += [(int(a.strip()[1:]), int(b.strip()[1:]))
                   for a in lo.split(",") for b in hi.split(",")]
    return _poset_text([f"p{i}" for i in range(14)], covers)


def _poset_text(labels, covers):
    lines = ["elements: " + " ".join(labels)]
    lines += [f"cover: {labels[a]} < {labels[b]}" for a, b in covers]
    return "\n".join(lines) + "\n"


def load_data():
    return json.loads(DATA_PATH.read_text())


def load_goldens():
    return json.loads(GOLDENS_PATH.read_text())


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def build_jobs(workload, seed, workdir, program, full_pool=False):
    """Write the workload's input files into workdir and return its jobs.

    `program` is the imported mackeydim package; only generic-ext uses it,
    to write subgroup lattices out as poset files.  Only disk-scan draws
    from a pool; the other two workloads do not depend on the seed.  With
    full_pool every pool member is included (used to record goldens).
    """
    if workload == "disk-scan":
        return _disk_scan(random.Random(f"{workload}/{seed}"), Path(workdir), full_pool)
    if workload == "section-types":
        return _section_types()
    if workload == "generic-ext":
        return _generic_ext(Path(workdir), program)
    raise ValueError(f"unknown workload {workload!r}")


def _disk_scan(rng, workdir, full_pool):
    data = load_data()
    jobs = []
    for spec in data["disk_scan_groups"]:
        n = cyclic_prime_power_exponent(spec)
        jobs.append(Job(f"scan monotonicity {spec}", "monotonicity",
                        ["scan", "--group", spec, "monotonicity"],
                        {"systems": None if n is None else 2**n}))
    for spec in GENS_LATTICES:
        lat = data["gens_lattices"][spec]
        picks = (range(GENS_POOL) if full_pool
                 else sorted(rng.sample(range(GENS_POOL), GENS_PER_LATTICE)))
        for i in picks:
            name = f"{spec}-{i}.gen"
            labels = gens_pool_entry(spec, lat["proper"], i)
            (workdir / name).write_text(
                "".join(f"gen: {k} -> {lat['top']}\n" for k in labels))
            jobs.append(Job(f"gldim-mackey {spec} gens#{i}", "mackey",
                            ["gldim-mackey", "--group", spec, "--gens", name,
                             "--format", "json"]))
    return jobs


def _section_types():
    jobs = [Job(f"scan frattini {spec}", "frattini",
                ["scan", "--group", spec, "frattini"], {"factors": m})
            for spec, m in abelian_group_specs(200)]
    jobs += [Job(f"gldim-ia table {spec}", "ia-table",
                 ["gldim-ia", "--group", spec, "--table", "--format", "json"],
                 {"factors": factor_count(spec)})
             for spec in TABLE_GROUPS]
    return jobs


def _generic_ext(workdir, program):
    inputs = [("defect-14", defect_poset_text())]
    inputs += [(f"graded-{i}", graded_poset_text(i)) for i in range(GRADED_COUNT)]
    for spec in POSET_LATTICES:
        G = program.groups.parse_group(spec)
        P = program.groups.subgroup_lattice(G).poset
        inputs.append((f"lattice-{spec}", program.posets.poset_to_text(P)))
    jobs = []
    for name, text in inputs:
        fname = f"{name}.poset"
        (workdir / fname).write_text(text)
        labels = text.splitlines()[0].split()[1:]
        jobs.append(Job(f"gldim-ia poset {name}", "ia-poset",
                        ["gldim-ia", "--poset", fname, "--table", "--format", "json"],
                        {"labels": labels}, poset_file=fname))
    return jobs


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------


def digest(exit_code, stdout):
    return f"{exit_code}:{hashlib.sha256(stdout).hexdigest()[:16]}"


def check_answer(job, exit_code, stdout, oracle_table, goldens):
    """None when the job's answer is right, else the reason.

    Compares the CLI exit code and stdout digest with the golden, then runs
    the workload's independent mathematical check.  Two checks are the
    CLI's own: `scan monotonicity` with a violation and `gldim-mackey` with
    disagreeing routes exit 4 (DiscrepancyExit).  Every golden records exit
    0, so a job that newly exits non-zero, for that or any other reason, is
    a wrong answer.  oracle_table is None when the oracle half raised; that
    job is already a failure, and only the izext half is checked.
    """
    golden = goldens.get(job.key)
    if golden is None:
        return "no golden recorded for this input"
    got = digest(exit_code, stdout)
    if got != golden:
        return f"exit code and stdout digest {got} != golden {golden}"
    if exit_code != 0:
        return None  # the golden itself records this exit
    report = json.loads(stdout)
    if job.kind == "monotonicity":
        want = job.expect["systems"]
        if want is not None and report["systems"] != want:
            return f"{report['systems']} disk-like systems, expected 2^n = {want}"
    elif job.kind == "mackey":
        if report["gldim"] > report["height_bound"]:
            return "gldim exceeds the height bound"
    elif job.kind == "frattini":
        m = job.expect["factors"]
        got = (report["gldim"], report["realization"]["degree"])
        if got != (m, m):
            return f"(gldim, Frattini degree) = {got}, expected ({m}, {m})"
    elif job.kind == "ia-table":
        m = job.expect["factors"]
        top = max(e["n"] for e in report["ext_table"])
        if (report["gldim"], top) != (m, m):
            return f"gldim {report['gldim']}, top Ext degree {top}, expected {m}"
    elif job.kind == "ia-poset":
        index = {lab: i for i, lab in enumerate(job.expect["labels"])}
        table = {(index[e["x"]], index[e["y"]], e["n"]): e["dim"]
                 for e in report["ext_table"]}
        if report["gldim"] != max(n for _x, _y, n in table):
            return "gldim is not the top degree of the Ext table"
        if oracle_table is not None and table != oracle_table:
            return "izext Ext table differs from the oracle table"
    return None
