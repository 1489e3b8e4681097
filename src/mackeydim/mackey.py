"""Headline computations: dim([H]^O), the global dimension of rational
incomplete Mackey functor categories for disk-like transfer systems on
abelian groups, the height upper bound, and the property scans.

Everything the underlying results make equal is computed by two independent
routes and compared; a disagreement raises DiscrepancyError (for the two
gldim routes, the CLI exits 4) rather than being resolved silently.

A disk-like system is read off its family S (its arrows into G): the
inseparability classes are the fibres of c_S(j), the least member of S
above j, so gldim(O_S) = max_j r(c_S(j)/j) with r the prime-power factor
count (gldim_of_family).  `scan monotonicity` uses that closed form alone.
gldim_mackey reads its rows off the same fibres; `gldim-mackey` compares it
with gldim_mackey_via_ext, whose classes come from the containment
fingerprints of transfer.inseparability_classes.  class_dim, with both of
its formulations, is the reference the tests compare the closed form with.
"""

from __future__ import annotations

import json

from . import groups, izext, transfer
from .izext import DiscrepancyError

__all__ = [
    "ClassRow",
    "MackeyDimReport",
    "class_dim",
    "gldim_of_family",
    "gldim_mackey",
    "gldim_mackey_via_ext",
    "scan_monotonicity",
    "scan_frattini",
    "scan_conjectures",
]


class ClassRow:
    __slots__ = ("representative", "members", "minimal", "dim")

    def __init__(self, representative, members, minimal, dim):
        self.representative = representative
        self.members = members
        self.minimal = minimal
        self.dim = dim


class MackeyDimReport:
    """Per-class dimensions plus the maximum and the height bound."""

    def __init__(self, group, system, rows, gldim, height_bound):
        self.group = group
        self.system = system
        self.rows = rows
        self.gldim = gldim
        self.height_bound = height_bound

    def to_json_dict(self):
        lat = self.system.lattice
        return {
            "schema": 1,
            "group": self.group.spec_string(),
            "generators": [
                f"{lat.label(k)} -> {lat.label(h)}"
                for (k, h) in self.system.generators_into_top()
            ],
            "classes": [
                {
                    "representative": lat.label(r.representative),
                    "size": len(r.members),
                    "members": [lat.label(i) for i in r.members],
                    "minimal": [lat.label(i) for i in r.minimal],
                    "dim": r.dim,
                }
                for r in self.rows
            ],
            "gldim": self.gldim,
            "height_bound": self.height_bound,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _minimal_members(lattice, members):
    mask = 0
    for i in members:
        mask |= 1 << i
    down = lattice.poset.down
    return [i for i in members if down[i] & mask == (1 << i)]


def class_dim(partition, rep):
    """dim([H]^O): max prime-power factor count of H/K over minimal K.

    Also evaluates the all-pairs formulation (max over K <= L in the class)
    and raises DiscrepancyError if the two disagree.
    """
    lattice = partition.system.lattice
    c = partition.class_of_representative(rep)
    members = partition.classes[c]
    minimal = _minimal_members(lattice, members)
    via_minimal = max((_factor_count(lattice, rep, k) for k in minimal), default=0)
    via_pairs = 0
    P = lattice.poset
    for a in members:
        for b in members:
            if a != b and P.leq(b, a):
                via_pairs = max(via_pairs, _factor_count(lattice, a, b))
    if via_minimal != via_pairs:
        raise DiscrepancyError(
            "the two formulations of dim([H]^O) disagree",
            {"minimal": via_minimal, "pairs": via_pairs},
        )
    return via_minimal


def _class_tops(lattice, family):
    """c_S(j) for every subgroup j: the least member of the family S above j.

    S is meet-closed and holds G, so the members above j have a least one;
    subgroups are sorted by order, so it is the lowest set bit of S & up[j].
    The fibres of c_S are the inseparability classes, and c_S(j) is the top
    of the class of j.
    """
    tops = []
    for row in lattice.poset.up:
        above = row & family
        tops.append((above & -above).bit_length() - 1)
    return tops


def _factor_count(lattice, h, k):
    """r(H/K): the number of prime-power cyclic factors of the quotient, the
    number of parts of its type."""
    return sum(len(part) for _p, part in lattice.section_type(h, k))


def gldim_of_family(lattice, family, counts):
    """gldim of the disk-like system with family S, in closed form:
    max over subgroups j of r(c_S(j)/j).

    r only falls on passing to a quotient, so this is the max over each
    class of r(top/minimal member), as in class_dim.  `counts` is a dict
    that memoizes r per pair (j, c_S(j)) across calls on one lattice.
    """
    best = 0
    for j, c in enumerate(_class_tops(lattice, family)):
        if c != j:
            r = counts.get((j, c))
            if r is None:
                r = counts[(j, c)] = _factor_count(lattice, c, j)
            best = max(best, r)
    return best


def gldim_mackey(G, T):
    """Report with gldim = max over classes of dim([H]^O), plus the height bound.

    The classes are the fibres of c_S, in order of their tops; a class's
    dim is the max of r(top/K) over its minimal members K.
    """
    transfer.require_disk_like(T)
    lattice = T.lattice
    classes = {}
    for j, c in enumerate(_class_tops(lattice, T.into[lattice.top_index()])):
        classes.setdefault(c, []).append(j)
    rows = []
    height_bound = 0
    best = 0
    for rep in sorted(classes):
        members = classes[rep]
        minimal = _minimal_members(lattice, members)
        dim = max((_factor_count(lattice, rep, k) for k in minimal if k != rep), default=0)
        height_bound = max(height_bound, lattice.poset.restrict(members).height())
        best = max(best, dim)
        rows.append(ClassRow(rep, members, minimal, dim))
    if best > height_bound:
        raise DiscrepancyError(
            "global dimension exceeds the height bound",
            {"gldim": best, "height_bound": height_bound},
        )
    return MackeyDimReport(G, T, rows, best, height_bound)


def gldim_mackey_via_ext(G, T):
    """Independent route: max over classes of gldim IA(class poset).

    Must agree with gldim_mackey(G, T).gldim; the caller compares the two
    (the CLI exits 4 on a mismatch).
    """
    transfer.require_disk_like(T)
    partition = transfer.inseparability_classes(T)
    best = 0
    for rep in partition.representatives:
        cp = transfer.class_poset(partition, rep)
        best = max(best, izext.gldim_incidence(cp))
    return best


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def scan_monotonicity(G):
    """Check gldim(O2) <= gldim(O1) for every inclusion O1 <= O2 of disk-like
    systems; reports the annotated inclusion poset and any violations.

    Each gldim is read off the system's family by gldim_of_family, with one
    table of quotient factor counts for the whole lattice.
    """
    lattice = groups.subgroup_lattice(G)
    systems, poset = transfer.enumerate_disk_like(lattice)
    top = lattice.top_index()
    counts = {}
    dims = [gldim_of_family(lattice, T.into[top], counts) for T in systems]

    def arrows(T):
        return [f"{lattice.label(k)}->{lattice.label(h)}" for k, h in T.nontrivial_arrows()]

    # per gldim value d, the mask of systems whose gldim exceeds d
    larger = {d: sum(1 << b for b, e in enumerate(dims) if e > d) for d in set(dims)}
    violations = []
    pairs = 0
    for a in range(len(systems)):
        above = poset.up[a] & ~(1 << a)
        pairs += above.bit_count()
        bad = above & larger[dims[a]]
        if bad:
            violations += [
                {"smaller": arrows(systems[a]), "larger": arrows(systems[b]),
                 "gldim_smaller": dims[a], "gldim_larger": dims[b]}
                for b in range(len(systems)) if bad >> b & 1
            ]
    return {
        "schema": 1,
        "group": G.spec_string(),
        "systems": len(systems),
        "inclusion_pairs": pairs,
        "gldims": dims,
        "max_gldim": max(dims) if dims else 0,
        "violations": violations,
    }


def _squarefree_exponent_key(type_key):
    """True when every primary part is elementary (Phi of the section trivial)."""
    return all(all(e == 1 for e in part) for _p, part in type_key)


_PAIR_SCAN_LIMIT = 3000


def scan_frattini(G):
    """(a) cohomology vanishing for eligible pairs, (b) realization at Phi.

    A pair (H, K) with K < H is eligible when Phi(H) is not contained in K
    and the open interval is non-empty; its interval is the proper part of
    Sub(H/K).  Phi(H) <= K exactly when H/K has squarefree exponent, and a
    section without it has a primary part of order >= p^2, so its interval
    is never empty: eligibility and vanishing are decided per section type,
    here by the closed form.  When the lattice is small enough, _pair_scan
    also counts the eligible pairs and checks each eligible type once more,
    by the generic route on a real interval of Sub(G).
    """
    section_keys = groups.section_type_keys(G)
    vanishing = []
    for key in section_keys:
        if not key or _squarefree_exponent_key(key):
            continue
        dims = izext.prop_cohomology_of_type(key)
        if dims == {-1: 1}:
            # |Sub| = 2: interval empty, pair not eligible
            continue
        ok = not dims
        vanishing.append({"section": _key_name(key), "acyclic": ok})
        if not ok:
            raise DiscrepancyError(
                "eligible interval with non-vanishing cohomology",
                {"section": _key_name(key), "cohomology": dims},
            )
    pair_stats = _pair_scan(G)
    # frattini_realization raises unless its degree is r(G), the gldim
    gldim = izext.frattini_realization(G)
    # the witness subgroup is G itself, named from its primary type
    name = groups.type_name(groups.primary_type_key(G.primary_type()))
    return {
        "schema": 1,
        "group": G.spec_string(),
        "eligible_sections": vanishing,
        "pair_scan": pair_stats,
        "realization": {"subgroup": name, "degree": gldim},
        "gldim": gldim,
    }


def _key_name(key):
    parts = []
    for p, part in key:
        for e in part:
            parts.append(f"C{p**e}")
    return "x".join(parts) if parts else "C1"


_PAIR_TYPE_LIMIT = 20000


def _pair_scan(G):
    """Eligible pairs of Sub(G), counted in closed form, and one check of
    vanishing per eligible section type, by the generic route.

    A pair K < H is eligible when Phi(H) is not contained in K and the open
    interval is non-empty.  Phi(H) <= K exactly when H/K has squarefree
    exponent; a section without it has a primary part of order >= p^2,
    which has a proper non-trivial subgroup, so its interval is never empty.
    The eligible pairs are therefore the pairs K <= H less those with
    Phi(H) <= K <= H, both counted off the primary tables
    (SubgroupLattice.pair_counts).  For squarefree-exponent G every Phi(H)
    is trivial, so no pair is eligible and nothing is built.

    The eligible section types are the subgroup types of G without
    squarefree exponent: every section type is a subgroup type, and (H, 1)
    is eligible with the type of H.  Each is checked once, by the generic
    route (izext.ext_dims: order complex and elimination) on the interval
    (1, H) of the first subgroup H of that type, sharing nothing with the
    closed form behind the type-level check.  When the eligible-pair count
    exceeds the per-pair budget, the exact count is still reported and
    vanishing is covered by the type-level check alone.
    """
    if all(e == 1 for _p, e in G.factors):
        return {"mode": "skipped-squarefree-exponent", "eligible_pairs": 0}
    try:
        lattice = groups.subgroup_lattice(G, max_count=_PAIR_SCAN_LIMIT)
    except groups.BudgetExceededError:
        return {"mode": "type-level-only", "eligible_pairs": None}
    comparable, frattini = lattice.pair_counts()
    eligible = comparable - frattini
    if eligible > _PAIR_TYPE_LIMIT:
        return {"mode": "pairwise-count-only", "eligible_pairs": eligible,
                "distinct_sections": None}
    bottom = lattice.bottom_index()
    checked = set()
    for h in range(lattice.n):
        key = lattice.subgroup_type(h)
        if key in checked or _squarefree_exponent_key(key):
            continue
        checked.add(key)
        if izext.ext_dims(lattice.poset, h, bottom) != {}:
            raise DiscrepancyError(
                "eligible pair with non-vanishing interval cohomology",
                {
                    "H": lattice.label(h),
                    "K": lattice.label(bottom),
                    "section": _key_name(key),
                },
            )
    return {"mode": "pairwise", "eligible_pairs": eligible,
            "distinct_sections": len(checked)}


def scan_conjectures(G):
    """Witness tables for the conjecture scans; reports only, asserts nothing."""
    rows = []
    # the section types of G are its subgroup types (groups.section_type_keys)
    for key in groups.section_type_keys(G):
        m = sum(len(part) for _p, part in key)
        rows.append({"subgroup_type": _key_name(key), "frattini_interval_degree": m})
    gldim = izext.gldim_subgroup_lattice(G)
    realized = max((r["frattini_interval_degree"] for r in rows), default=0)
    out = {
        "schema": 1,
        "group": G.spec_string(),
        "gldim_incidence": gldim,
        "frattini_witnesses": rows,
        "frattini_realizes_gldim": realized == gldim,
    }
    try:
        mono = scan_monotonicity(G)
    except groups.BudgetExceededError:
        # the lattice or the disk-like enumeration is over budget
        return out
    out["monotonicity_violations"] = mono["violations"]
    out["disk_like_systems"] = mono["systems"]
    return out
