"""Command-line surface: lattice listings, global dimensions, scans, and the
izext-vs-oracle cross check.

Exit codes: 0 success, 2 usage error, 3 domain error (validation, parsing,
budget), 4 internal cross-check discrepancy (its details go to stderr as one
JSON line).  All outputs are deterministic for a fixed invocation.
"""

from __future__ import annotations

import json
import random

import click

from . import groups, izext, mackey, oracle, posets, transfer
from .groups import GroupError
from .izext import DiscrepancyError
from .posets import PosetError

EXIT_DOMAIN = 3
EXIT_DISCREPANCY = 4


class DomainExit(click.ClickException):
    exit_code = EXIT_DOMAIN


class DiscrepancyExit(click.ClickException):
    exit_code = EXIT_DISCREPANCY


def _domain_errors(fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DiscrepancyError as exc:
            # the structured details go to stderr as one JSON line
            click.echo(json.dumps({"discrepancy": str(exc), "details": exc.details},
                                  sort_keys=True, default=str), err=True)
            raise DiscrepancyExit(str(exc))
        except (GroupError, PosetError, transfer.TransferError, oracle.OracleError,
                izext.IzextError) as exc:
            raise DomainExit(str(exc))

    return wrapper


def _emit(text, output):
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


@click.group()
def main():
    """Global dimensions of rational incomplete Mackey functor categories."""


def _load_lattice(group_spec, max_order, max_subgroups):
    G = groups.parse_group(group_spec)
    return groups.subgroup_lattice(G, max_order=max_order, max_count=max_subgroups)


@main.command()
@click.argument("group_spec")
@click.option("--format", "fmt",
              type=click.Choice(["text", "json", "dot", "tsv", "poset"]),
              default="text", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@click.option("--max-order", type=int, default=100000, show_default=True)
@click.option("--max-subgroups", type=int, default=6000, show_default=True)
@_domain_errors
def lattice(group_spec, fmt, output, max_order, max_subgroups):
    """List the subgroup lattice of GROUP_SPEC and its Hasse diagram."""
    lat = _load_lattice(group_spec, max_order, max_subgroups)
    if fmt == "dot":
        _emit(posets.hasse_dot(lat.poset, name="lattice"), output)
        return
    if fmt == "poset":
        _emit(posets.poset_to_text(lat.poset), output)
        return
    rows = [
        (lat.label(i), lat.order(i), groups.type_name(lat.subgroup_type(i)))
        for i in range(lat.n)
    ]
    if fmt == "json":
        _emit(
            json.dumps(
                {
                    "schema": 1,
                    "group": lat.group.spec_string(),
                    "subgroups": [
                        {"label": l, "order": o, "type": t} for (l, o, t) in rows
                    ],
                    "covers": [
                        [lat.label(a), lat.label(b)] for a, b in lat.poset.covers()
                    ],
                },
                indent=2,
                sort_keys=True,
            ),
            output,
        )
    elif fmt == "tsv":
        lines = ["label\torder\ttype"]
        lines += [f"{l}\t{o}\t{t}" for (l, o, t) in rows]
        _emit("\n".join(lines), output)
    else:
        lines = [f"subgroups of {lat.group.spec_string()}: {lat.n}"]
        lines += [f"  {l:<10} order {o:<6} type {t}" for (l, o, t) in rows]
        lines.append("covers:")
        lines += [f"  {lat.label(a)} < {lat.label(b)}" for a, b in lat.poset.covers()]
        _emit("\n".join(lines), output)


@main.command(name="gldim-ia")
@click.option("--group", "group_spec", default=None)
@click.option("--poset", "poset_path", type=click.Path(exists=True), default=None)
@click.option("--table/--no-table", default=False, show_default=True,
              help="Also emit the full Ext table.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_domain_errors
def gldim_ia(group_spec, poset_path, table, fmt, output):
    """Global dimension of the rational incidence algebra of a poset."""
    if (group_spec is None) == (poset_path is None):
        raise click.UsageError("provide exactly one of --group or --poset")
    if group_spec is not None:
        G = groups.parse_group(group_spec)
        value = izext.gldim_subgroup_lattice(G)
        name = f"Sub_{G.spec_string()}"
        P = None
        if table:
            lat = groups.subgroup_lattice(G)
            P = lat.poset
            entries = izext.ext_table_section(lat)
    else:
        with open(poset_path) as fh:
            P = posets.parse_poset_text(fh.read())
        if P.n == 0:
            raise DomainExit("empty poset has no incidence algebra")
        name = poset_path
        # the table holds every (x, x, 0), so its top degree is the gldim
        entries = izext.ext_table(P)
        value = max(n for _x, _y, n in entries)
    if fmt == "json":
        payload = {"schema": 1, "poset": name, "gldim": value}
        if table:
            payload["ext_table"] = [
                {"x": P.labels[x], "y": P.labels[y], "n": n, "dim": d}
                for (x, y, n), d in sorted(entries.items())
            ]
        _emit(json.dumps(payload, indent=2, sort_keys=True), output)
    else:
        lines = [f"gldim IA({name}) = {value}"]
        if table:
            lines.append("nonzero Ext entries:")
            for (x, y, n), d in sorted(entries.items()):
                lines.append(f"  Ext^{n}(S_{P.labels[x]}, S_{P.labels[y]}) = Q^{d}")
        _emit("\n".join(lines), output)


@main.command(name="gldim-mackey")
@click.option("--group", "group_spec", required=True)
@click.option("--gens", "gens_path", type=click.Path(exists=True), required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="text", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_domain_errors
def gldim_mackey_cmd(group_spec, gens_path, fmt, output):
    """Global dimension of rational O-Mackey functors for a disk-like O."""
    G = groups.parse_group(group_spec)
    lat = groups.subgroup_lattice(G)
    with open(gens_path) as fh:
        pairs = transfer.parse_generator_lines(fh.read(), lat)
    T = transfer.close(lat, pairs)
    report = mackey.gldim_mackey(G, T)
    via_ext = mackey.gldim_mackey_via_ext(G, T)
    if via_ext != report.gldim:
        raise DiscrepancyExit(
            f"two routes disagree: {report.gldim} (classes) vs {via_ext} (Ext)"
        )
    if fmt == "json":
        _emit(report.to_json(), output)
    else:
        lines = [
            f"group {G.spec_string()}, {len(pairs)} generator(s)",
            f"gldim = {report.gldim}   (height bound {report.height_bound})",
            "classes:",
        ]
        for r in report.rows:
            lines.append(
                f"  [{lat.label(r.representative)}]  size {len(r.members)}  "
                f"minimal {{{', '.join(lat.label(i) for i in r.minimal)}}}  dim {r.dim}"
            )
        _emit("\n".join(lines), output)


@main.command(name="scan")
@click.option("--group", "group_spec", required=True)
@click.argument("kind", type=click.Choice(["monotonicity", "frattini", "conjectures"]))
@click.option("--format", "fmt", type=click.Choice(["text", "json"]),
              default="json", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_domain_errors
def scan(group_spec, kind, fmt, output):
    """Property scans: monotonicity, Frattini suite, conjecture witnesses."""
    G = groups.parse_group(group_spec)
    if kind == "monotonicity":
        report = mackey.scan_monotonicity(G)
        if report["violations"]:
            raise DiscrepancyExit(
                f"monotonicity violated in {len(report['violations'])} pair(s)"
            )
    elif kind == "frattini":
        report = mackey.scan_frattini(G)
    else:
        report = mackey.scan_conjectures(G)
    if fmt == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), output)
    else:
        _emit("\n".join(f"{k}: {v}" for k, v in sorted(report.items())), output)


def random_poset(n, rng, edge_prob=0.35):
    """Random poset on n elements via a random DAG on an index order."""
    labels = [f"p{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                pairs.append((i, j))
    return posets.FinitePoset.from_covers(labels, pairs)


@main.command(name="oracle-check")
@click.option("--max-group-order", type=int, default=24, show_default=True)
@click.option("--max-elements", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--samples", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--inject-fault", is_flag=True, default=False,
              help="Deliberately corrupt one entry (self-test of the diff).")
@click.option("--output", type=click.Path(), default=None)
@_domain_errors
def oracle_check(max_group_order, max_elements, samples, seed, inject_fault, output):
    """Cross-validate interval-cohomology Ext tables against resolutions."""
    rng = random.Random(seed)
    diffs = []
    cases = 0
    for n in range(1, max_group_order + 1):
        for G in groups.abelian_groups_of_order(n):
            lat = groups.subgroup_lattice(G)
            a = izext.ext_table_section(lat)
            b = oracle.ext_table_oracle(lat.poset)
            cases += 1
            if inject_fault and cases == 1:
                x, y, deg = next(iter(sorted(b)))
                b[(x, y, deg)] += 1
            if a != b:
                diffs.append({"case": G.spec_string()})
    for s in range(samples):
        P = random_poset(rng.randint(1, max_elements), rng)
        a = izext.ext_table(P)
        b = oracle.ext_table_oracle(P)
        cases += 1
        if a != b:
            diffs.append({"case": f"random poset seed {seed} sample {s}"})
    payload = {
        "schema": 1,
        "cases": cases,
        "diffs": diffs,
        "ok": not diffs,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), output)
    if diffs:
        raise DiscrepancyExit(f"{len(diffs)} case(s) disagree")


if __name__ == "__main__":
    main()
