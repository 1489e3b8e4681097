"""Ext between simple modules of rational incidence algebras, via interval
cohomology, and the resulting global dimension.

Two routes live here.  The generic route takes any finite poset and computes
Ext^n(S_x, S_y) from the reduced cohomology of the open interval (empty
interval = empty complex = Q in degree -1, so Ext is H~^{n-2} uniformly).
The subgroup-lattice route exploits that the closed interval [K, H] is the
subgroup lattice of H/K: Ext only depends on the isomorphism type of the
section, and sections are joins of their primary parts.  Every cohomology
dimension is an exact integer elimination; the one certificate left is the
top degree of an elementary abelian part of rank above five, which a single
apartment cycle proves nonzero.  Both routes are cross-checked against each
other and against the brute-force resolution oracle in the test suite.
"""

from __future__ import annotations

import json
from functools import lru_cache

from . import groups, posets, qlinalg
from .groups import AbelianGroup, group_from_primary_type, primary_type_key

__all__ = [
    "IzextError",
    "DiscrepancyError",
    "ext_dims",
    "gldim_incidence",
    "ext_table",
    "ext_table_section",
    "ext_table_json",
    "gldim_subgroup_lattice",
    "ext_dims_section",
    "section_contribution",
    "frattini_realization",
    "prop_cohomology_of_type",
]


class IzextError(Exception):
    pass


class DiscrepancyError(IzextError):
    """Two routes that must agree did not; never silently resolved."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


def _cohomology_to_ext(coh):
    return {d + 2: v for d, v in coh.items()}


def ext_dims(P, x, y, reduce=True):
    """dim Ext^n(S_x, S_y) over IA(P) by degree, zero degrees omitted.

    x = y gives {0: 1}; y not below x gives {}; otherwise the reduced
    rational cohomology of the open interval, shifted by two (the empty
    interval contributes Q in degree -1, hence Ext^1).
    """
    if not (0 <= x < P.n and 0 <= y < P.n):
        raise IzextError("element index out of range")
    if x == y:
        return {0: 1}
    if not P.leq(y, x):
        return {}
    interval = posets.open_interval(P, x, y)
    if reduce:
        interval = posets.dismantle(interval)
    cx = posets.order_complex(interval)
    return _cohomology_to_ext(qlinalg.reduced_cohomology_dims(cx))


def gldim_incidence(P, reduce=True):
    """Largest n with Ext^n(S_x, S_y) != 0; 0 for non-empty discrete posets."""
    if P.n == 0:
        raise IzextError("global dimension of the empty poset is undefined")
    best = 0
    # bound per pair: the height of the closed interval
    pairs = []
    for x in range(P.n):
        down = P.down[x] & ~(1 << x)
        m = down
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            bound = posets.closed_interval(P, x, y).height()
            pairs.append((bound, x, y))
    pairs.sort(reverse=True)
    seen = {}
    for bound, x, y in pairs:
        if bound <= best:
            break
        mask = P.down[x] & P.up[y] & ~(1 << x) & ~(1 << y)
        key = mask
        if key in seen:
            dims = seen[key]
        else:
            dims = ext_dims(P, x, y, reduce=reduce)
            seen[key] = dims
        if dims:
            best = max(best, max(dims))
    return best


def _table(size, dims):
    return {
        (x, y, n): dim
        for x in range(size)
        for y in range(size)
        for n, dim in sorted(dims(x, y).items())
    }


def ext_table(P, reduce=True):
    """All nonzero Ext entries of IA(P) as a dict (x, y, n) -> dim."""
    return _table(P.n, lambda x, y: ext_dims(P, x, y, reduce=reduce))


def ext_table_section(lattice):
    """ext_table of IA(Sub_G) through the section types (abelian G)."""
    return _table(lattice.n, lambda x, y: ext_dims_section(lattice, x, y))


def ext_table_json(P, entries=None):
    if entries is None:
        entries = ext_table(P)
    return json.dumps(
        {
            "schema": 1,
            "poset_labels": list(P.labels),
            "entries": [
                {"x": x, "y": y, "n": n, "dim": dim}
                for (x, y, n), dim in sorted(entries.items())
            ],
        },
        indent=2,
        sort_keys=True,
    )


# ---------------------------------------------------------------------------
# Cohomology summaries for proper parts of subgroup lattices, by type
# ---------------------------------------------------------------------------


class CohomSummary:
    """Reduced cohomology of prop(Sub_Q): full dims, or a certified top degree.

    kind 'full': dims is the complete {degree: dim} dictionary.
    kind 'top': the complex has dimension top and a verified nonzero cycle
    there, so the maximum nonzero degree is exactly `top`; lower degrees are
    not computed.  Only the maximum is consumed in that case.
    """

    __slots__ = ("kind", "dims", "top")

    def __init__(self, kind, dims=None, top=None):
        self.kind = kind
        self.dims = dims
        self.top = top

    @classmethod
    def full(cls, dims):
        return cls("full", dims=dict(dims))

    @classmethod
    def top_only(cls, top):
        return cls("top", top=top)

    def is_contractible(self):
        return self.kind == "full" and not self.dims

    def is_empty_complex(self):
        return self.kind == "full" and self.dims == {-1: 1}

    def max_degree(self):
        if self.kind == "top":
            return self.top
        if not self.dims:
            return None
        return max(self.dims)

    def __repr__(self):
        if self.kind == "full":
            return f"CohomSummary(full {self.dims})"
        return f"CohomSummary(top {self.top})"


def join_dims(a, b):
    """dim H~_n(X * Y) = sum_{i+j=n-1} dim H~_i(X) dim H~_j(Y) over Q."""
    out = {}
    for i, va in a.items():
        for j, vb in b.items():
            n = i + j + 1
            out[n] = out.get(n, 0) + va * vb
    return out


_S0 = {0: 1}


def join_summaries(a, b):
    if a.is_contractible() or b.is_contractible():
        return CohomSummary.full({})
    if a.kind == "full" and b.kind == "full":
        return CohomSummary.full(join_dims(a.dims, b.dims))
    return CohomSummary.top_only(a.max_degree() + b.max_degree() + 1)


def _suspension(summary):
    return join_summaries(summary, CohomSummary.full(_S0))


# elementary abelian parts up to this rank get full, exact cohomology; above
# it only the top degree is certified, by one apartment cycle
_FULL_BUILDING_LIMIT = 5


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


def _building_top_certificate(p, k):
    """Certify H~^{k-2}(prop(Sub((C_p)^k))) != 0 without the ambient complex.

    One apartment suffices: its chains are distinct simplices of the ambient
    order complex, the fundamental cycle has +-1 coefficients, and the
    ambient complex has dimension exactly k-2 because orders strictly divide
    along chains (at most k-1 proper orders p..p^{k-1}).  In top degree any
    nonzero cycle is a nonzero homology class.
    """
    from itertools import permutations

    chains = {}
    for perm in permutations(range(k)):
        sets = []
        acc = []
        for t in range(k - 1):
            acc = sorted(acc + [perm[t]])
            sets.append(tuple(acc))
        sign = _perm_sign(perm)
        chains[tuple(sets)] = sign
    # boundary inside the abstract apartment: drop one subset from each chain
    boundary = {}
    for chain, sign in chains.items():
        s = 1
        for t in range(len(chain)):
            face = chain[:t] + chain[t + 1 :]
            boundary[face] = boundary.get(face, 0) + s * sign
            s = -s
    if any(boundary.values()):
        raise IzextError("apartment fundamental cycle failed its boundary check")
    return CohomSummary.top_only(k - 2)


@lru_cache(maxsize=None)
def _ptype_summary(p, part, need_full):
    """Cohomology summary of prop(Sub) for the abelian p-group of type part."""
    part = tuple(part)
    if not part:
        raise IzextError("trivial primary part should be skipped")
    if part == (1,):
        return CohomSummary.full({-1: 1})
    if len(part) == 1:
        # cyclic of order p^e, e >= 2: proper part is a chain, contractible
        return CohomSummary.full({})
    k = len(part)
    if k > _FULL_BUILDING_LIMIT and all(e == 1 for e in part):
        if need_full:
            raise qlinalg.EliminationBudgetExceeded(
                f"full cohomology of the rank-{k} building over F_{p} is out of budget"
            )
        return _building_top_certificate(p, k)
    # reduce the proper part, then compute
    G = group_from_primary_type({p: part})
    lattice = groups.subgroup_lattice(G)
    P = lattice.poset
    top = lattice.top_index()
    bottom = lattice.bottom_index()
    interval = posets.open_interval(P, top, bottom)
    core = posets.dismantle(interval)
    cx = posets.order_complex(core)
    return CohomSummary.full(qlinalg.reduced_cohomology_dims(cx))


def prop_cohomology_of_type(type_key, need_full=False):
    """Summary for prop(Sub_Q) where Q has the given primary type key.

    Q is a product of its primary parts; Sub_Q is the product of the primary
    lattices and the proper part of a product is the join of the factors'
    proper parts with an S^0 between consecutive factors (tested against
    direct computation on small products).
    """
    parts = [(p, tuple(part)) for p, part in type_key if part]
    if not parts:
        raise IzextError("the trivial group has no proper part")
    summaries = [_ptype_summary(p, part, need_full) for p, part in parts]
    acc = summaries[0]
    for s in summaries[1:]:
        acc = join_summaries(_suspension(acc), s)
    return acc


def section_contribution(type_key):
    """Top Ext degree of the pair (top, bottom) in Sub_Q for Q of this type.

    None when the interval carries no cohomology at all (contractible), else
    the maximum n with Ext^n(S_Q, S_e) != 0.
    """
    if not type_key:
        return 0  # Ext^0(S_x, S_x)
    summary = prop_cohomology_of_type(type_key)
    if summary.is_contractible():
        return None
    return summary.max_degree() + 2


def ext_dims_section(lattice, x, y, need_full=True):
    """ext_dims for a comparable subgroup-lattice pair via the section type."""
    P = lattice.poset
    if x == y:
        return {0: 1}
    if not P.leq(y, x):
        return {}
    key = groups.quotient_type_key(lattice.subgroups[x], lattice.subgroups[y])
    summary = prop_cohomology_of_type(key, need_full=need_full)
    if summary.kind != "full":
        raise IzextError("full Ext dims requested beyond the certified budget")
    return _cohomology_to_ext(summary.dims)


def gldim_subgroup_lattice(G):
    """gldim IA(Sub_G) through the section-type engine (abelian G)."""
    if not isinstance(G, AbelianGroup):
        raise IzextError("expected an AbelianGroup")
    if G.order == 1:
        return 0
    best = 0
    for key in groups.section_type_keys(G):
        contrib = section_contribution(key)
        if contrib is not None and contrib > best:
            best = contrib
    return best


def frattini_realization(G):
    """Witness (subgroup H, top Ext degree of (H, Phi H)) maximizing the degree.

    For abelian H the pair (H, Phi H) has section type prod_p (C_p)^{m_p(H)},
    so its top Ext degree is the number of prime-power cyclic factors of H.
    Asserts the maximum equals gldim IA(Sub_G) and reports a structured
    discrepancy otherwise.
    """
    gldim = gldim_subgroup_lattice(G)
    best_key = None
    best_deg = -1
    # the section types of G are its subgroup types (groups.section_type_keys)
    for key in groups.section_type_keys(G):
        # H of this type: (H, Phi H) has elementary section of rank = factor count
        m = sum(len(part) for _, part in key)
        if m == 0:
            deg = 0
        else:
            elem_key = primary_type_key({p: (1,) * len(part) for p, part in key})
            contrib = section_contribution(elem_key)
            if contrib is None:
                raise DiscrepancyError(
                    "elementary section reported contractible",
                    {"type": elem_key},
                )
            deg = contrib
        if deg > best_deg:
            best_deg = deg
            best_key = key
    if best_deg != gldim:
        raise DiscrepancyError(
            "Frattini realization does not attain the global dimension",
            {"gldim": gldim, "witness_degree": best_deg, "witness_type": best_key},
        )
    H = groups.full_subgroup(G)
    return H, best_deg
