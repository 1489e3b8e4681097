"""Brute-force references for the subgroup lattice and its labels.

- quotient_invariants and count_prime_power_factors compute the invariant
  factors of H/K with one Smith normal form, and the number of prime-power
  cyclic factors they split into; invariant_factors and iso_name name a
  subgroup from them.
- The element-set engine lists the elements of a subgroup by closure under
  its columns (subgroup_elements), of G by brute force (group_elements),
  and recovers a subgroup from an element set (subgroup_from_elements).
- element_lattice builds Sub(G) the direct way: every subgroup of G, one
  element mask each, inclusion by n^2 mask tests, labels from iso_name.
  The product of the primary tables (groups.subgroup_lattice) must equal it;
  past the element gate, contains_lattice orders the subgroups by HNF
  membership instead.
- elementary_blocks lists the subgroups of (C_p)^m from the row-echelon
  bases of the subspaces of F_p^m, one HNF each: the reference for the
  recursive block enumerator on elementary types.
"""

from collections import Counter
from itertools import combinations, product
from math import prod

from mackeydim import groups, qlinalg
from mackeydim.groups import (
    BudgetExceededError,
    ContainmentError,
    GroupError,
    Subgroup,
    enumerate_subgroups,
    subgroup_from_columns,
)

ELEMENT_ORDER_LIMIT = 4096


def trivial_subgroup(G):
    cols = [[G.moduli[i] if i == j else 0 for i in range(G.k)] for j in range(G.k)]
    return subgroup_from_columns(G, cols)


def _solve_lower(cols, v):
    k = len(v)
    v = list(v)
    x = [0] * k
    for j in range(k):
        pivot = cols[j][j]
        if v[j] % pivot:
            return None
        q = v[j] // pivot
        x[j] = q
        if q:
            for i in range(j, k):
                v[i] -= q * cols[j][i]
    if any(v):
        return None
    return x


def quotient_invariants(H, K):
    """Invariant factors (entries > 1) of H/K; requires K <= H."""
    if H.ambient != K.ambient:
        raise GroupError("ambient mismatch")
    G = H.ambient
    k = G.k
    if k == 0:
        return []
    X = []
    for j in range(k):
        x = _solve_lower(H.cols, list(K.cols[j]))
        if x is None:
            raise ContainmentError("K is not contained in H")
        X.append(x)
    rows = [[X[j][i] for j in range(k)] for i in range(k)]
    diag = qlinalg.smith_normal_form(rows)
    prod = 1
    for d in diag:
        prod *= d
    if prod != H.order // K.order:
        raise GroupError("SNF determinant mismatch")
    return [d for d in diag if d > 1]


def count_prime_power_factors(invariants):
    """Number of prime-power cyclic factors in the primary decomposition."""
    total = 0
    for d in invariants:
        if d <= 1:
            raise GroupError(f"invariant factor {d} <= 1")
        total += len(groups._factorize(d))
    return total


def invariant_factors(H):
    """Invariant factor decomposition of the subgroup as an abstract group."""
    return quotient_invariants(H, trivial_subgroup(H.ambient))


def iso_name(H):
    invs = invariant_factors(H)
    if not invs:
        return "C1"
    return "x".join(f"C{d}" for d in invs)


def _check_element_budget(G):
    if G.order > ELEMENT_ORDER_LIMIT:
        raise BudgetExceededError(
            f"element-set engine is gated to |G| <= {ELEMENT_ORDER_LIMIT}"
        )


def group_elements(G):
    from itertools import product as iproduct

    _check_element_budget(G)
    return [tuple(t) for t in iproduct(*[range(m) for m in G.moduli])]


def subgroup_elements(H):
    """Elements of H as tuples modulo the ambient moduli."""
    G = H.ambient
    _check_element_budget(G)
    k = G.k
    gens = [tuple(c[i] % G.moduli[i] for i in range(k)) for c in H.cols]
    zero = tuple([0] * k)
    seen = {zero}
    frontier = [zero]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((cur[i] + g[i]) % G.moduli[i] for i in range(k))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != H.order:
        raise GroupError("element closure size differs from the subgroup order")
    return frozenset(seen)


def element_mask(H, index):
    mask = 0
    for t in subgroup_elements(H):
        mask |= 1 << index[t]
    return mask


def subgroup_from_elements(G, elements):
    """Canonical subgroup from an element set (closure assumed)."""
    cols = [list(t) for t in elements]
    return subgroup_from_columns(G, cols)


def element_lattice(G, max_count=6000):
    """(subgroups, labels, up-masks) of Sub(G) from element masks of all of G.

    K contains H when |H| divides |K| and H's element mask lies inside K's.
    """
    subs = sorted(enumerate_subgroups(G, max_count=max_count), key=Subgroup.sort_key)
    n = len(subs)
    index = {t: i for i, t in enumerate(group_elements(G))}
    masks = [element_mask(s, index) for s in subs]
    by_order = {}
    for j, s in enumerate(subs):
        by_order.setdefault(s.order, []).append(j)
    up = []
    for i in range(n):
        row = 0
        for order, js in by_order.items():
            if order % subs[i].order == 0:
                for j in js:
                    if masks[i] & ~masks[j] == 0:
                        row |= 1 << j
        up.append(row)
    return subs, snf_labels(subs), up


def snf_labels(subs):
    """iso_name of each subgroup, numbered `.1`, `.2`, ... where it repeats."""
    names = [iso_name(s) for s in subs]
    total = Counter(names)
    seen = Counter()
    labels = []
    for name in names:
        if total[name] == 1:
            labels.append(name)
        else:
            seen[name] += 1
            labels.append(f"{name}.{seen[name]}")
    return labels


def contains_lattice(subs):
    """Up-masks of the subgroups by HNF membership (Subgroup.contains)."""
    return [
        sum(1 << j for j, K in enumerate(subs) if K.order % H.order == 0 and K.contains(H))
        for H in subs
    ]


def subspace_echelon_bases(p, m):
    """Row-echelon bases of all subspaces of F_p^m (one basis per subspace)."""
    out = [[]]
    for d in range(1, m + 1):
        for pivots in combinations(range(m), d):
            free_positions = [(r, c) for r, pc in enumerate(pivots)
                              for c in range(pc + 1, m) if c not in pivots]
            for values in product(range(p), repeat=len(free_positions)):
                rows = [[0] * m for _ in range(d)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free_positions, values):
                    rows[r][c] = v
                out.append(rows)
    return out


def elementary_blocks(p, m):
    """HNF column blocks of the subgroups of (C_p)^m, one per echelon basis,
    sorted as Subgroup.sort_key sorts subgroups: by order, then row-major."""
    blocks = []
    for rows in subspace_echelon_bases(p, m):
        gens = rows + [[p if i == j else 0 for i in range(m)] for j in range(m)]
        blocks.append(tuple(tuple(c) for c in qlinalg.hnf_columns(gens, m)))

    def key(block):
        order = p ** m // prod(col[j] for j, col in enumerate(block))
        return order, tuple(block[j][i] for i in range(m) for j in range(m))

    return sorted(blocks, key=key)
