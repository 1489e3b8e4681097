"""Headline computations: dim([H]^O), the global dimension of rational
incomplete Mackey functor categories for disk-like transfer systems on
abelian groups, the height upper bound, and the property scans.

Everything the underlying results make equal is computed by two independent
routes and compared; a disagreement raises DiscrepancyError (for the two
gldim routes, the CLI exits 4) rather than being resolved silently.
"""

from __future__ import annotations

import json

from . import groups, izext, transfer
from .groups import count_prime_power_factors, quotient_invariants
from .izext import DiscrepancyError
from .transfer import NotDiskLikeError

__all__ = [
    "ClassRow",
    "MackeyDimReport",
    "class_dim",
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
    P = lattice.poset
    return [i for i in members if P.down[i] & mask == (1 << i)]


def class_dim(partition, rep):
    """dim([H]^O): max prime-power factor count of H/K over minimal K.

    Also evaluates the all-pairs formulation (max over K <= L in the class)
    and asserts the two agree.
    """
    lattice = partition.system.lattice
    c = partition.class_of_representative(rep)
    members = partition.classes[c]
    H = lattice.subgroups[rep]
    minimal = _minimal_members(lattice, members)
    via_minimal = 0
    for k in minimal:
        n = count_prime_power_factors(
            quotient_invariants(H, lattice.subgroups[k])
        )
        via_minimal = max(via_minimal, n)
    via_pairs = 0
    P = lattice.poset
    for a in members:
        for b in members:
            if a != b and P.leq(b, a):
                n = count_prime_power_factors(
                    quotient_invariants(lattice.subgroups[a], lattice.subgroups[b])
                )
                via_pairs = max(via_pairs, n)
    if via_minimal != via_pairs:
        raise DiscrepancyError(
            "the two formulations of dim([H]^O) disagree",
            {"minimal": via_minimal, "pairs": via_pairs},
        )
    return via_minimal


def _require_disk_like(T):
    report = transfer.validate(T)
    if report is not None:
        raise NotDiskLikeError(f"system does not validate: {report.message}")
    regenerated = transfer.close(T.lattice, T.generators_into_top(), meets=T.meets())
    if regenerated.into != T.into:
        lat = T.lattice
        for h in range(lat.n):
            extra = T.into[h] & ~regenerated.into[h]
            if extra:
                k = (extra & -extra).bit_length() - 1
                raise NotDiskLikeError(
                    f"not disk-like: arrow {lat.label(k)} -> {lat.label(h)} is not "
                    "generated by the arrows into the full group"
                )
        raise NotDiskLikeError("not disk-like")


def gldim_mackey(G, T):
    """Report with gldim = max over classes of dim([H]^O), plus the height bound."""
    _require_disk_like(T)
    partition = transfer.inseparability_classes(T)
    lattice = T.lattice
    rows = []
    height_bound = 0
    best = 0
    for c, rep in enumerate(partition.representatives):
        members = partition.classes[c]
        minimal = _minimal_members(lattice, members)
        dim = class_dim(partition, rep)
        cp = transfer.class_poset(partition, rep)
        height_bound = max(height_bound, cp.height())
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
    _require_disk_like(T)
    partition = transfer.inseparability_classes(T)
    best = 0
    for rep in partition.representatives:
        cp = transfer.class_poset(partition, rep)
        best = max(best, izext.gldim_incidence(cp))
    return best


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


def scan_monotonicity(G, max_subgroups=16):
    """Check gldim(O2) <= gldim(O1) for every inclusion O1 <= O2 of disk-like
    systems; reports the annotated inclusion poset and any violations."""
    lattice = groups.subgroup_lattice(G)
    systems, poset = transfer.enumerate_disk_like(lattice, max_subgroups=max_subgroups)
    dims = [gldim_mackey(G, T).gldim for T in systems]
    violations = []
    pairs = 0
    for a in range(len(systems)):
        for b in range(len(systems)):
            if a != b and poset.leq(a, b):
                pairs += 1
                if dims[b] > dims[a]:
                    violations.append(
                        {
                            "smaller": [
                                f"{lattice.label(k)}->{lattice.label(h)}"
                                for k, h in systems[a].nontrivial_arrows()
                            ],
                            "larger": [
                                f"{lattice.label(k)}->{lattice.label(h)}"
                                for k, h in systems[b].nontrivial_arrows()
                            ],
                            "gldim_smaller": dims[a],
                            "gldim_larger": dims[b],
                        }
                    )
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
    Sub(H/K), and Phi(H) <= K exactly when H/K has squarefree exponent, so
    eligibility and vanishing are decided per section type.  The literal
    per-pair loop also runs whenever the lattice is small enough.
    """
    section_keys = groups.section_type_keys(G)
    vanishing = []
    for key in section_keys:
        if not key or _squarefree_exponent_key(key):
            continue
        summary = izext.prop_cohomology_of_type(key)
        if summary.is_empty_complex():
            # |Sub| = 2: interval empty, pair not eligible
            continue
        ok = summary.is_contractible()
        vanishing.append({"section": _key_name(key), "acyclic": ok})
        if not ok:
            raise DiscrepancyError(
                "eligible interval with non-vanishing cohomology",
                {"section": _key_name(key), "summary": repr(summary)},
            )
    pair_stats = _literal_pair_scan(G)
    H, degree = izext.frattini_realization(G)
    gldim = izext.gldim_subgroup_lattice(G)
    return {
        "schema": 1,
        "group": G.spec_string(),
        "eligible_sections": vanishing,
        "pair_scan": pair_stats,
        "realization": {"subgroup": H.iso_name(), "degree": degree},
        "gldim": gldim,
    }


def _key_name(key):
    parts = []
    for p, part in key:
        for e in part:
            parts.append(f"C{p**e}")
    return "x".join(parts) if parts else "C1"


_PAIR_TYPE_LIMIT = 20000


def _literal_pair_scan(G):
    """Per-pair eligibility count on the actual lattice, when affordable.

    For squarefree-exponent G every Phi(H) is trivial, so no pair is
    eligible and the loop is skipped structurally.  Phi(H) is read off the
    closed form (intersection of pH over p), which the test suite checks
    against the lattice route.  When the eligible-pair count exceeds the
    per-pair budget, the exact count is still reported and vanishing is
    covered by the per-section verification.
    """
    if all(e == 1 for _p, e in G.factors):
        return {"mode": "skipped-squarefree-exponent", "eligible_pairs": 0}
    try:
        lattice = groups.subgroup_lattice(G, max_count=_PAIR_SCAN_LIMIT)
    except groups.BudgetExceededError:
        return {"mode": "type-level-only", "eligible_pairs": None}
    P = lattice.poset
    n = lattice.n
    primes = sorted({p for p, _e in G.factors})
    k = G.k
    eligible_masks = []
    eligible = 0
    for h in range(n):
        H = lattice.subgroups[h]
        acc = H
        for p in primes:
            cols = [
                [p * H.cols[j][i] for i in range(k)] for j in range(k)
            ]
            acc = groups.meet(acc, groups.subgroup_from_columns(G, cols))
        phi = lattice.index_of(acc)
        # eligible K: strictly below h, not above phi, interval non-empty
        mask = P.down[h] & ~(1 << h) & ~P.up[phi]
        cand = mask
        emask = 0
        while cand:
            kk = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            between = P.down[h] & P.up[kk] & ~(1 << h) & ~(1 << kk)
            if between:
                emask |= 1 << kk
        eligible += bin(emask).count("1")
        eligible_masks.append(emask)
    checked_types = {}
    mode = "pairwise"
    if eligible <= _PAIR_TYPE_LIMIT:
        for h in range(n):
            m = eligible_masks[h]
            while m:
                kk = (m & -m).bit_length() - 1
                m &= m - 1
                key = groups.quotient_type_key(
                    lattice.subgroups[h], lattice.subgroups[kk]
                )
                if key not in checked_types:
                    summary = izext.prop_cohomology_of_type(key)
                    checked_types[key] = summary.is_contractible()
                if not checked_types[key]:
                    raise DiscrepancyError(
                        "eligible pair with non-vanishing interval cohomology",
                        {
                            "H": lattice.label(h),
                            "K": lattice.label(kk),
                            "section": _key_name(key),
                        },
                    )
    else:
        mode = "pairwise-count-only"
    return {
        "mode": mode,
        "eligible_pairs": eligible,
        "distinct_sections": len(checked_types) or None,
    }


def scan_conjectures(G, max_subgroups=16):
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
        lattice = groups.subgroup_lattice(G)
        if lattice.n <= max_subgroups:
            mono = scan_monotonicity(G, max_subgroups=max_subgroups)
            out["monotonicity_violations"] = mono["violations"]
            out["disk_like_systems"] = mono["systems"]
    except groups.BudgetExceededError:
        pass
    return out
