"""Brute-force references for the lattice readers and the section closed form.

- frattini_closed_form and quotient_type_key compute Phi(H) and the type of
  H/K from the HNF bases (meets and one Smith normal form), for comparison
  with the primary tables' Frattini blocks (group_oracle.frattini_indices)
  and SubgroupLattice.section_type.
- literal_pair_scan walks every pair (H, K) of the lattice, for comparison
  with the closed-form pair counts of `scan frattini`.
- building_summary computes the reduced cohomology of prop(Sub_Q) from the
  subgroup lattice of each primary part of Q: dismantle the proper part,
  then eliminate its order complex exactly.  Elementary parts of rank above
  FULL_BUILDING_LIMIT are not eliminated; one apartment cycle certifies
  their top degree instead.  The parts are joined with an S^0 between
  consecutive factors.
"""

from functools import lru_cache
from itertools import permutations

from mackeydim import groups, izext, mackey, posets, qlinalg
from mackeydim.groups import primary_type_key
from mackeydim.izext import DiscrepancyError

from group_oracle import (
    frattini_indices,
    group_from_primary_type,
    meet,
    quotient_invariants,
    subgroup_from_columns,
)
from poset_oracle import dismantle, open_interval


def frattini_closed_form(H):
    """Phi(H) as the intersection of pH over the primes p dividing |G|."""
    G = H.ambient
    acc = H
    for p in sorted({p for p, _ in G.factors}):
        acc = meet(acc, subgroup_from_columns(G, [[p * x for x in col] for col in H.cols]))
    return acc


def quotient_type_key(H, K):
    """Primary-type key of H/K from its invariant factors; requires K <= H."""
    type_map = {}
    for d in quotient_invariants(H, K):
        for p, e in groups._factorize(d):
            type_map.setdefault(p, []).append(e)
    return primary_type_key(type_map)


def literal_pair_scan(G):
    """Per-pair eligibility count on the actual lattice, when affordable:
    the reference for mackey._pair_scan, which counts in closed form.

    For squarefree-exponent G every Phi(H) is trivial, so no pair is
    eligible and the loop is skipped structurally.  Phi(H) comes from the
    primary tables (group_oracle.frattini_indices) and each pair's section
    type from SubgroupLattice.section_type.  Vanishing is checked once per distinct
    eligible type, by the generic route (izext.ext_dims) on the first
    eligible interval of that type: order complex and elimination, sharing
    nothing with the closed form behind the type-level check.  When the
    eligible-pair count exceeds the per-pair budget, the exact count is
    still reported and vanishing is covered by the type-level check alone.
    """
    if all(e == 1 for _p, e in G.factors):
        return {"mode": "skipped-squarefree-exponent", "eligible_pairs": 0}
    try:
        lattice = groups.subgroup_lattice(G, max_count=mackey._PAIR_SCAN_LIMIT)
    except groups.BudgetExceededError:
        return {"mode": "type-level-only", "eligible_pairs": None}
    P = lattice.poset
    n = lattice.n
    eligible_masks = []
    eligible = 0
    phis = frattini_indices(lattice)
    for h in range(n):
        phi = phis[h]
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
    if eligible <= mackey._PAIR_TYPE_LIMIT:
        for h in range(n):
            m = eligible_masks[h]
            while m:
                kk = (m & -m).bit_length() - 1
                m &= m - 1
                key = lattice.section_type(h, kk)
                if key not in checked_types:
                    checked_types[key] = izext.ext_dims(P, h, kk) == {}
                if not checked_types[key]:
                    raise DiscrepancyError(
                        "eligible pair with non-vanishing interval cohomology",
                        {
                            "H": lattice.label(h),
                            "K": lattice.label(kk),
                            "section": mackey._key_name(key),
                        },
                    )
    else:
        mode = "pairwise-count-only"
    return {
        "mode": mode,
        "eligible_pairs": eligible,
        "distinct_sections": len(checked_types) or None,
    }


# A summary is ("full", dims) with the complete {degree: dim} dictionary, or
# ("top", degree) when only the top nonzero degree is certified.

FULL_BUILDING_LIMIT = 5
CONTRACTIBLE = ("full", {})
_S0 = ("full", {0: 1})


def join_dims(a, b):
    """dim H~_n(X * Y) = sum_{i+j=n-1} dim H~_i(X) dim H~_j(Y) over Q."""
    out = {}
    for i, va in a.items():
        for j, vb in b.items():
            n = i + j + 1
            out[n] = out.get(n, 0) + va * vb
    return out


def _top(summary):
    kind, value = summary
    return value if kind == "top" else max(value)


def join_summaries(a, b):
    if CONTRACTIBLE in (a, b):
        return CONTRACTIBLE
    if a[0] == b[0] == "full":
        return ("full", join_dims(a[1], b[1]))
    return ("top", _top(a) + _top(b) + 1)


def _suspension(summary):
    return join_summaries(summary, _S0)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def building_top_certificate(k):
    """Certify H~^{k-2}(prop(Sub((C_p)^k))) != 0 without the ambient complex.

    One apartment suffices: its chains are distinct simplices of the ambient
    order complex, the fundamental cycle has +-1 coefficients, and the
    ambient complex has dimension exactly k-2 because orders strictly divide
    along chains (at most k-1 proper orders p..p^{k-1}).  In top degree any
    nonzero cycle is a nonzero homology class.
    """
    chains = {}
    for perm in permutations(range(k)):
        sets = []
        acc = []
        for t in range(k - 1):
            acc = sorted(acc + [perm[t]])
            sets.append(tuple(acc))
        chains[tuple(sets)] = _perm_sign(perm)
    # boundary inside the abstract apartment: drop one subset from each chain
    boundary = {}
    for chain, sign in chains.items():
        s = 1
        for t in range(len(chain)):
            face = chain[:t] + chain[t + 1 :]
            boundary[face] = boundary.get(face, 0) + s * sign
            s = -s
    if any(boundary.values()):
        raise AssertionError("apartment fundamental cycle failed its boundary check")
    return ("top", k - 2)


@lru_cache(maxsize=None)
def ptype_summary(p, part):
    """Summary of prop(Sub) for the abelian p-group of type part."""
    k = len(part)
    if k > FULL_BUILDING_LIMIT and all(e == 1 for e in part):
        return building_top_certificate(k)
    lattice = groups.subgroup_lattice(group_from_primary_type({p: part}))
    interval = open_interval(lattice.poset, lattice.top_index(), lattice.bottom_index())
    cx = posets.order_complex(dismantle(interval))
    return ("full", qlinalg.reduced_cohomology_dims(cx))


def building_summary(type_key):
    """Summary of prop(Sub_Q) for Q of this (nontrivial) primary type key."""
    summaries = [ptype_summary(p, tuple(part)) for p, part in type_key if part]
    acc = summaries[0]
    for s in summaries[1:]:
        acc = join_summaries(_suspension(acc), s)
    return acc
