"""Ext between simple modules of rational incidence algebras, via interval
cohomology, and the resulting global dimension.

Two routes live here.  The generic route takes any finite poset and computes
Ext^n(S_x, S_y) from the reduced cohomology of the open interval (empty
interval = empty complex = Q in degree -1, so Ext is H~^{n-2} uniformly), by
exact integer elimination.  Each interval stays a bitmask of the poset: it is
dismantled and its chains are walked on the poset's own masks, once per
distinct interval, and the global dimension is the top degree of the
resulting table.  The subgroup-lattice route exploits that the
closed interval [K, H] is the subgroup lattice of H/K: Ext only depends on
the type of the section, which SubgroupLattice.section_type reads off the
lattice, and the proper part of that type's lattice has its cohomology in
closed form (prop_cohomology_of_type): contractible unless H/K has
squarefree exponent, else a join of Tits buildings.  That route builds no
lattice and eliminates nothing.  The test suite compares it with the
building engine (lattice, dismantling, elimination and, above rank five, an
apartment cycle), with the generic route, with the Moebius function of the
lattice and with the brute-force resolution oracle.
"""

from __future__ import annotations

from . import groups, posets, qlinalg
from .groups import AbelianGroup, primary_type_key

__all__ = [
    "IzextError",
    "DiscrepancyError",
    "ext_dims",
    "gldim_incidence",
    "ext_table",
    "ext_table_section",
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


def _open_mask(down, up, x, y):
    return down[x] & up[y] & ~(1 << x) & ~(1 << y)


def ext_dims(P, x, y):
    """dim Ext^n(S_x, S_y) over IA(P) by degree, zero degrees omitted.

    x = y gives {0: 1}; y not below x gives {}; otherwise the reduced
    rational cohomology of the open interval, shifted by two (the empty
    interval contributes Q in degree -1, hence Ext^1).  The interval is
    dismantled and its chains walked on P's own masks.
    """
    if not (0 <= x < P.n and 0 <= y < P.n):
        raise IzextError("element index out of range")
    if x == y:
        return {0: 1}
    if not P.leq(y, x):
        return {}
    mask = posets.dismantle_mask(P, _open_mask(P.down, P.up, x, y))
    cx = posets.order_complex(P, mask)
    return _cohomology_to_ext(qlinalg.reduced_cohomology_dims(cx))


def gldim_incidence(P):
    """Largest n with Ext^n(S_x, S_y) != 0: the top degree of ext_table(P),
    0 for non-empty discrete posets."""
    if P.n == 0:
        raise IzextError("global dimension of the empty poset is undefined")
    return max(n for _x, _y, n in ext_table(P))


def _table(P, dims):
    # Ext^*(S_x, S_y) vanishes unless y <= x, so only the bits of down[x] are
    # walked, in ascending order as a walk over all y would meet them
    table = {}
    for x, m in enumerate(P.down):
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            for n, dim in sorted(dims(x, y).items()):
                table[(x, y, n)] = dim
    return table


def ext_table(P):
    """All nonzero Ext entries of IA(P) as a dict (x, y, n) -> dim.

    Ext^*(S_x, S_y) depends only on the open interval, so pairs with the
    same interval mask share one computation.
    """
    seen = {}
    down, up = P.down, P.up

    def dims(x, y):
        if x == y:
            # mask 0, the key of a cover, but Ext^0 rather than Ext^1
            return {0: 1}
        key = _open_mask(down, up, x, y)
        if key not in seen:
            seen[key] = ext_dims(P, x, y)
        return seen[key]

    return _table(P, dims)


def ext_table_section(lattice):
    """ext_table of IA(Sub_G) through the section types (abelian G)."""
    return _table(lattice.poset, lambda x, y: ext_dims_section(lattice, x, y))


# ---------------------------------------------------------------------------
# Proper parts of subgroup lattices, by type (closed form)
# ---------------------------------------------------------------------------


def prop_cohomology_of_type(type_key):
    """Reduced cohomology {degree: dim} of prop(Sub_Q), Q of this primary type.

    If some primary part of Q is not elementary, Phi(Q) != 1 and the proper
    part is contractible (Kratzer-Thevenaz 1985): {}.  If Q = prod_p (C_p)^k_p,
    prop(Sub_Q) is the join of the Tits buildings of GL_k_p(F_p), each with
    Q^{p^{k_p(k_p-1)/2}} in degree k_p - 2 (Solomon 1969), with an S^0 between
    consecutive factors; so the only nonzero degree is sum k_p - 2.  For Q of
    prime order the proper part is empty: {-1: 1}.
    """
    parts = [(p, part) for p, part in type_key if part]
    if not parts:
        raise IzextError("the trivial group has no proper part")
    if any(e != 1 for _p, part in parts for e in part):
        return {}
    dim = 1
    for p, part in parts:
        k = len(part)
        dim *= p ** (k * (k - 1) // 2)
    return {sum(len(part) for _p, part in parts) - 2: dim}


def section_contribution(type_key):
    """Top Ext degree of the pair (top, bottom) in Sub_Q for Q of this type.

    None when the interval carries no cohomology at all (contractible), else
    the maximum n with Ext^n(S_Q, S_e) != 0.
    """
    if not type_key:
        return 0  # Ext^0(S_x, S_x)
    dims = prop_cohomology_of_type(type_key)
    if not dims:
        return None
    return max(dims) + 2


def ext_dims_section(lattice, x, y):
    """ext_dims for a subgroup-lattice pair, via the type of the section x/y."""
    if x == y:
        return {0: 1}
    if not lattice.poset.leq(y, x):
        return {}
    return _cohomology_to_ext(prop_cohomology_of_type(lattice.section_type(x, y)))


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
    """The largest top Ext degree of a pair (H, Phi H) of subgroups of G.

    For abelian H the pair (H, Phi H) has section type prod_p (C_p)^{m_p(H)},
    so its top Ext degree, read off the closed form, is the number of
    prime-power cyclic factors of H.  The maximum must be r(G), the number
    of G's factors, which gldim IA(Sub_G) equals, attained at H = G;
    otherwise a structured discrepancy is raised.
    """
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
    if best_deg != len(G.factors):
        raise DiscrepancyError(
            "Frattini realization does not attain the global dimension",
            {"factors": len(G.factors), "witness_degree": best_deg,
             "witness_type": best_key},
        )
    return best_deg
