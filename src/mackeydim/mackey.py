"""Headline computations: dim([H]^O), the global dimension of rational
incomplete Mackey functor categories for disk-like transfer systems on
abelian groups, the height upper bound, and the property scans.

Everything the underlying results make equal is computed by two independent
routes and compared; a disagreement raises DiscrepancyError (for the two
gldim routes, the CLI exits 4) rather than being resolved silently.

A disk-like system is read off its family S (its arrows into G): the
inseparability classes are the fibres of c_S(j), the least member of S
above j, so gldim(O_S) = max_j r(c_S(j)/j) with r the prime-power factor
count.  `scan monotonicity` uses that closed form alone, for every system of
a lattice at once (family_gldims): r(c_S(j)/j) is the least r(s/j) over the
members s >= j of S, so gldim(O_S) >= d exactly when S misses one of the
per-degree miss masks {s >= j : r(s/j) < d}, built once per lattice.  The
per-system route through c_S is the reference in tests/mackey_oracle.py.
gldim_mackey reads its rows off the fibres of c_S; `gldim-mackey` compares
it with gldim_mackey_via_ext, whose classes come from the containment
fingerprints of transfer.inseparability_classes.  class_dim, with both of
its formulations, is the reference the tests compare the closed form with.
"""

from __future__ import annotations

import json

from . import groups, izext, transfer
from .izext import DiscrepancyError
from .posets import mask_indices, union_lookup

__all__ = [
    "ClassRow",
    "MackeyDimReport",
    "class_dim",
    "family_gldims",
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


def family_gldims(lattice, families):
    """gldim of the disk-like system of each family S, off one table of
    per-degree miss masks for the whole lattice.

    For a subgroup j and a degree d >= 1 let B_{j,d} = {s >= j : r(s/j) < d}.
    c_S(j) lies below every member of S above j, and r(./j) cannot rise on
    passing to a subgroup (each p-rank is dim Omega_1), so r(c_S(j)/j) is
    the minimum of r(s/j) over the members s >= j of S.  Hence
    gldim(S) = max_j r(c_S(j)/j) >= d exactly when S misses B_{j,d} for some
    j, and gldim(S) is the largest d for which S misses some mask, else 0.

    Each r(s/j) is read once, off section_type.  S holds G, so a mask that
    holds G is never missed and is not kept; nor is a mask that contains a
    kept mask of the same or a higher degree, since S cannot miss it without
    missing that one.  Each family is then read with two list lookups, one
    per half of its mask, as transfer reads meet images (each list has
    2^ceil(n/2) entries): the kept masks its members hit, and so the
    highest-degree kept mask it misses.
    """
    n = lattice.n
    top = lattice.top_index()
    by_degree = {}
    for j, row in enumerate(lattice.poset.up):
        layers = [0] * n  # layers[r]: the s >= j with r(s/j) = r
        for s in mask_indices(row):
            layers[_factor_count(lattice, s, j)] |= 1 << s
        mask = 0
        for d, layer in enumerate(layers, 1):
            mask |= layer
            if mask >> top & 1:
                break
            by_degree.setdefault(d, set()).add(mask)
    kept = []  # (d, B), d descending
    for d in sorted(by_degree, reverse=True):
        for mask in sorted(by_degree[d], key=int.bit_count):
            if all(b & ~mask for _d, b in kept):
                kept.append((d, mask))
    # bit k of a lookup entry stands for kept[k], now in ascending degree,
    # after the empty mask of degree 0, which every S misses
    kept = [(0, 0)] + kept[::-1]
    degrees = [d for d, _b in kept]
    hits = [sum(1 << k for k, (_d, b) in enumerate(kept) if b >> s & 1) for s in range(n)]
    width = (n + 1) // 2
    lo, hi = union_lookup(hits[:width]), union_lookup(hits[width:])
    low = (1 << width) - 1
    full = (1 << len(kept)) - 1
    return [degrees[(full ^ (lo[f & low] | hi[f >> width])).bit_length() - 1]
            for f in families]


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

    Every gldim is read off the system's family by family_gldims, with one
    table of miss masks for the whole lattice.
    """
    lattice = groups.subgroup_lattice(G)
    systems, poset = transfer.enumerate_disk_like(lattice)
    top = lattice.top_index()
    dims = family_gldims(lattice, [T.into[top] for T in systems])

    def arrows(T):
        return [f"{lattice.label(k)}->{lattice.label(h)}" for k, h in T.nontrivial_arrows()]

    # larger[d]: the mask of the systems whose gldim exceeds d
    by_dim = [0] * (max(dims) + 1)
    for b, d in enumerate(dims):
        by_dim[d] |= 1 << b
    larger = [0] * len(by_dim)
    for d in range(len(by_dim) - 2, -1, -1):
        larger[d] = larger[d + 1] | by_dim[d + 1]
    violations = []
    pairs = -len(systems)
    for a, above in enumerate(poset.up):
        # above holds a itself, which is not in larger[dims[a]]
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
