"""Finite abelian group arithmetic on canonical HNF subgroup lattices.

A group is a product of cyclic factors of prime-power order; a subgroup is
the canonical column-HNF basis of an integer lattice L with
diag(n_1..n_k) Z^k <= L <= Z^k.  Equality of subgroups is bitwise equality
of bases, quotients reduce to one Smith normal form.  On a built lattice,
Frattini subgroups and section types are read off the order bitmasks
instead (SubgroupLattice.frattini, SubgroupLattice.section_type).
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import qlinalg
from .posets import FinitePoset

__all__ = [
    "GroupError",
    "ParseError",
    "BudgetExceededError",
    "ContainmentError",
    "AbelianGroup",
    "Subgroup",
    "SubgroupLattice",
    "parse_group",
    "group_from_primary_type",
    "subgroup_lattice",
    "enumerate_subgroups",
    "count_prime_power_factors",
    "quotient_invariants",
    "meet",
    "join",
    "subgroup_elements",
    "subgroup_from_elements",
    "primary_type_key",
    "section_type_keys",
]


class GroupError(Exception):
    pass


class ParseError(GroupError):
    pass


class ContainmentError(GroupError):
    pass


class BudgetExceededError(GroupError):
    def __init__(self, message, found=None):
        super().__init__(message)
        self.found = found


def _factorize(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class AbelianGroup:
    """Primary decomposition prod C_{p_i^{e_i}}, factors sorted by (p, e)."""

    __slots__ = ("factors", "order", "moduli")

    def __init__(self, factors):
        factors = tuple(sorted((int(p), int(e)) for p, e in factors))
        for p, e in factors:
            if not _is_prime(p):
                raise GroupError(f"{p} is not prime")
            if e < 1:
                raise GroupError(f"exponent {e} < 1")
        self.factors = factors
        order = 1
        moduli = []
        for p, e in factors:
            moduli.append(p**e)
            order *= p**e
        self.order = order
        self.moduli = tuple(moduli)

    @property
    def k(self):
        return len(self.factors)

    def primary_type(self):
        """Mapping prime -> descending exponent partition."""
        out = {}
        for p, e in self.factors:
            out.setdefault(p, []).append(e)
        return {p: tuple(sorted(es, reverse=True)) for p, es in out.items()}

    def spec_string(self):
        if not self.factors:
            return "C1"
        return "x".join(f"C{p**e}" for p, e in self.factors)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"AbelianGroup({self.spec_string()})"


_CN_RE = re.compile(r"^c(\d+)$")
_PE_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_group(spec):
    """Parse `C<n>` terms joined by `x`, or `<p>^<e>` terms joined by `*`."""
    s = spec.strip().lower().replace(" ", "")
    if not s:
        raise ParseError("empty group spec")
    if s.startswith("c") or "x" in s:
        factors = []
        for tok in s.split("x"):
            m = _CN_RE.match(tok)
            if not m:
                raise ParseError(f"bad cyclic term {tok!r} in {spec!r}")
            n = int(m.group(1))
            if n == 0:
                raise ParseError("C0 is not a group")
            factors.extend(_factorize(n))
        return AbelianGroup(factors)
    factors = []
    for tok in s.split("*"):
        m = _PE_RE.match(tok)
        if not m:
            raise ParseError(f"bad prime-power term {tok!r} in {spec!r}")
        p = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        if e < 1:
            raise ParseError(f"exponent {e} < 1 in {spec!r}")
        if p == 1:
            if m.group(2) is None and len(s.split("*")) == 1:
                raise ParseError("1 is not a prime; use C1 for the trivial group")
            raise ParseError("factor 1 is not allowed")
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime in {spec!r}")
        factors.append((p, e))
    return AbelianGroup(factors)


def group_from_primary_type(type_map):
    """AbelianGroup from {prime: exponent partition}."""
    factors = []
    for p, part in type_map.items():
        for e in part:
            factors.append((p, e))
    return AbelianGroup(factors)


def primary_type_key(type_map):
    return tuple(sorted((p, tuple(sorted(part, reverse=True))) for p, part in type_map.items() if part))


class Subgroup:
    """Canonical subgroup of an AbelianGroup: column-HNF lattice basis."""

    __slots__ = ("ambient", "cols", "order", "_key")

    def __init__(self, ambient, cols, order):
        self.ambient = ambient
        self.cols = cols  # tuple of k columns, each a tuple of k ints
        self.order = order
        # row-major flattening for the deterministic lexicographic order
        k = ambient.k
        self._key = (order, tuple(cols[j][i] for i in range(k) for j in range(k)))

    def sort_key(self):
        return self._key

    def contains(self, other):
        if other.ambient != self.ambient:
            raise GroupError("ambient mismatch")
        return all(_in_span(self.cols, list(c)) for c in other.cols)

    def invariant_factors(self):
        """Invariant factor decomposition of the subgroup as an abstract group."""
        return quotient_invariants(self, trivial_subgroup(self.ambient))

    def iso_name(self):
        invs = self.invariant_factors()
        if not invs:
            return "C1"
        return "x".join(f"C{d}" for d in invs)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.ambient == other.ambient
            and self.cols == other.cols
        )

    def __hash__(self):
        return hash((self.ambient, self.cols))

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"Subgroup({self.iso_name()} of {self.ambient.spec_string()})"


def _in_span(cols, v):
    """Is integer vector v in the span of lower-triangular HNF columns?"""
    k = len(v)
    v = list(v)
    for j in range(k):
        pivot = cols[j][j]
        if v[j] % pivot:
            return False
        q = v[j] // pivot
        if q:
            for i in range(j, k):
                v[i] -= q * cols[j][i]
    return not any(v)


def subgroup_from_columns(G, columns):
    """Canonical subgroup generated by the given integer column vectors."""
    k = G.k
    gens = [list(c) for c in columns]
    for i in range(k):
        col = [0] * k
        col[i] = G.moduli[i]
        gens.append(col)
    if k == 0:
        return Subgroup(G, (), 1)
    basis = qlinalg.hnf_columns(gens, k)
    if len(basis) != k:
        raise GroupError("subgroup lattice is not full rank")
    det = 1
    for j in range(k):
        det *= basis[j][j]
    if G.order % det:
        raise GroupError("lattice determinant does not divide the group order")
    cols = tuple(tuple(c) for c in basis)
    return Subgroup(G, cols, G.order // det)


def trivial_subgroup(G):
    cols = [[G.moduli[i] if i == j else 0 for i in range(G.k)] for j in range(G.k)]
    return subgroup_from_columns(G, cols)


def full_subgroup(G):
    cols = [[1 if i == j else 0 for i in range(G.k)] for j in range(G.k)]
    return subgroup_from_columns(G, cols)


def meet(H, K):
    """Lattice intersection."""
    if H.ambient != K.ambient:
        raise GroupError("ambient mismatch")
    G = H.ambient
    k = G.k
    if k == 0:
        return H
    rows = [
        [H.cols[j][i] for j in range(k)] + [-K.cols[j][i] for j in range(k)]
        for i in range(k)
    ]
    kern = qlinalg.kernel_basis_int(rows, 2 * k)
    cols = []
    for vec in kern:
        col = [sum(H.cols[j][i] * vec[j] for j in range(k)) for i in range(k)]
        cols.append(col)
    return subgroup_from_columns(G, cols)


def join(H, K):
    if H.ambient != K.ambient:
        raise GroupError("ambient mismatch")
    return subgroup_from_columns(H.ambient, list(H.cols) + list(K.cols))


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


def count_prime_power_factors(invariants):
    """Number of prime-power cyclic factors in the primary decomposition."""
    total = 0
    for d in invariants:
        if d <= 1:
            raise GroupError(f"invariant factor {d} <= 1")
        total += len(_factorize(d))
    return total


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _subspace_echelon_bases(p, m):
    """Row-echelon bases of all subspaces of F_p^m (one basis per subspace)."""
    out = [[]]
    from itertools import combinations, product as iproduct

    for d in range(1, m + 1):
        for pivots in combinations(range(m), d):
            free_positions = []
            for r, pc in enumerate(pivots):
                for c in range(pc + 1, m):
                    if c not in pivots:
                        free_positions.append((r, c))
            for values in iproduct(range(p), repeat=len(free_positions)):
                rows = [[0] * m for _ in range(d)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free_positions, values):
                    rows[r][c] = v
                out.append(rows)
    return out


def _gaussian_subspace_count(p, m):
    total = 0
    for d in range(m + 1):
        num = 1
        den = 1
        for i in range(d):
            num *= p**m - p**i
            den *= p**d - p**i
        total += num // den
    return total


@lru_cache(maxsize=None)
def _prime_block_bases(p, exps):
    """All canonical HNF blocks for the abelian p-group prod C_{p^e}.

    exps is the ascending exponent tuple (matching factor order).  Returns
    column lists (m x m lower-triangular HNF) for every subgroup lattice
    between diag(p^e) Z^m and Z^m.
    """
    m = len(exps)
    moduli = [p**e for e in exps]
    if m == 0:
        return ((),)
    if all(e == 1 for e in exps):
        blocks = []
        for rows in _subspace_echelon_bases(p, m):
            gens = [[rows[r][i] for i in range(m)] for r in range(len(rows))]
            cols = [list(g) for g in gens]
            for i in range(m):
                e_i = [0] * m
                e_i[i] = p
                cols.append(e_i)
            basis = qlinalg.hnf_columns(cols, m)
            blocks.append(tuple(tuple(c) for c in basis))
        if not len(set(blocks)) == len(blocks) == _gaussian_subspace_count(p, m):
            raise GroupError("subspace count differs from the Gaussian binomial")
        return tuple(sorted(blocks))

    # general case: recursive column-wise enumeration with exact pruning;
    # column j is chosen after columns > j, and N_j e_j must already lie in
    # the span of columns >= j (pairwise divisibility is not sufficient)
    results = []
    divisor_choices = [[p**a for a in range(e + 1)] for e in exps]

    def span_check(cols_from_j, j):
        v = [0] * m
        v[j] = moduli[j]
        for t, col in enumerate(cols_from_j):
            jj = j + t
            pivot = col[jj]
            if v[jj] % pivot:
                return False
            q = v[jj] // pivot
            if q:
                for i in range(jj, m):
                    v[i] -= q * col[i]
        return not any(v)

    def build(j, diag, suffix_cols):
        if j < 0:
            results.append(tuple(tuple(c) for c in suffix_cols))
            return
        d = diag[j]
        below = list(range(j + 1, m))
        from itertools import product as iproduct

        for vals in iproduct(*[range(diag[i]) for i in below]):
            col = [0] * m
            col[j] = d
            for i, v in zip(below, vals):
                col[i] = v
            cols_from_j = [col] + suffix_cols
            if span_check(cols_from_j, j):
                build(j - 1, diag, cols_from_j)

    from itertools import product as iproduct

    for diag in iproduct(*divisor_choices):
        build(m - 1, list(diag), [])
    return tuple(sorted(set(results)))


def enumerate_subgroups(G, max_order=100000, max_count=None):
    """All subgroups of G, sorted by (order, row-major basis)."""
    if G.order > max_order:
        raise BudgetExceededError(
            f"|G| = {G.order} exceeds enumeration budget {max_order}"
        )
    ptype = {}
    positions = {}
    for idx, (p, e) in enumerate(G.factors):
        ptype.setdefault(p, []).append(e)
        positions.setdefault(p, []).append(idx)
    primes = sorted(ptype)
    per_prime = [
        _prime_block_bases(p, tuple(ptype[p])) for p in primes
    ]
    k = G.k
    subs = []
    from itertools import product as iproduct

    count = 0
    for combo in iproduct(*per_prime):
        count += 1
        if max_count is not None and count > max_count:
            raise BudgetExceededError(
                f"subgroup count exceeds {max_count}", found=count
            )
        cols = [[0] * k for _ in range(k)]
        det = 1
        for p, block in zip(primes, combo):
            pos = positions[p]
            for bj, gj in enumerate(pos):
                col = block[bj]
                for bi, gi in enumerate(pos):
                    cols[gj][gi] = col[bi]
                det *= col[bj]
        sub = Subgroup(G, tuple(tuple(c) for c in cols), G.order // det)
        subs.append(sub)
    subs.sort(key=lambda s: s.sort_key())
    return subs


class SubgroupLattice:
    """Subgroups of G with the inclusion poset and label bookkeeping."""

    def __init__(self, group, subgroups, poset):
        self.group = group
        self.subgroups = subgroups
        self.poset = poset
        self._by_cols = {s.cols: i for i, s in enumerate(subgroups)}
        self._by_label = {lab: i for i, lab in enumerate(poset.labels)}
        self._phi = None  # built on the first frattini call

    @property
    def n(self):
        return len(self.subgroups)

    def index_of(self, sub):
        try:
            return self._by_cols[sub.cols]
        except KeyError:
            raise GroupError("subgroup not in lattice") from None

    def index_of_label(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise GroupError(f"no subgroup labelled {label!r}") from None

    def label(self, i):
        return self.poset.labels[i]

    # subgroups are sorted by order, so 1 comes first and G last
    def top_index(self):
        return self.n - 1

    def bottom_index(self):
        return 0

    def leq(self, i, j):
        return self.poset.leq(i, j)

    def frattini_subgroup(self, H):
        """Frattini subgroup of H as a Subgroup (H given as a Subgroup)."""
        return self.subgroups[self.frattini(self.index_of(H))]

    def frattini(self, i):
        """Phi of subgroup i: the meet of its maximal subgroups.

        In an abelian group the maximal subgroups of H are those of prime
        index, so the down-set of Phi(H) is the intersection of their
        down-sets; subgroups are sorted by order, so Phi(H) is its highest
        set bit.  The table is built on the first call, once per lattice.
        """
        if self._phi is None:
            down = self.poset.down
            orders = [s.order for s in self.subgroups]
            by_order = {}
            for j, o in enumerate(orders):
                by_order[o] = by_order.get(o, 0) | 1 << j
            primes = [p for p, _e in _factorize(self.group.order)]
            phi = []
            for h, o in enumerate(orders):
                acc = down[h]
                for p in primes:
                    if o % p == 0:
                        maximal = down[h] & by_order[o // p]
                        while maximal:
                            j = (maximal & -maximal).bit_length() - 1
                            maximal &= maximal - 1
                            acc &= down[j]
                phi.append(acc.bit_length() - 1)
            self._phi = phi
        return self._phi[i]

    def section_type(self, h, k):
        """Primary-type key of H/K for subgroups k <= h, read off the lattice.

        Phi^i(H) K / K = Phi^i(H/K), so o_i = |Phi^i(H) v K| / |K| is the
        order of Phi^i(H/K), and for each prime p, v_p(o_i) - v_p(o_{i+1})
        counts the parts of the p-type lambda_p of H/K that exceed i;
        conjugating those counts gives lambda_p.  The join of a and k is the
        lowest set bit of up[a] & up[k], since subgroups are sorted by order.
        """
        up = self.poset.up
        if not up[k] >> h & 1:
            raise ContainmentError("K is not contained in H")
        subs = self.subgroups
        base = subs[k].order
        orders = []  # o_0, o_1, ... while above 1
        a = h
        while True:
            above = up[a] & up[k]
            o = subs[(above & -above).bit_length() - 1].order // base
            if o == 1:
                break
            orders.append(o)
            a = self.frattini(a)
        type_map = {}
        for p, _e in _factorize(orders[0]) if orders else ():
            vals = [_valuation(o, p) for o in orders] + [0]
            above_i = [vals[i] - vals[i + 1] for i in range(len(orders))]
            type_map[p] = tuple(sum(1 for c in above_i if c > j) for j in range(above_i[0]))
        return primary_type_key(type_map)


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _make_labels(subgroups):
    names = [s.iso_name() for s in subgroups]
    from collections import Counter

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


def subgroup_lattice(G, max_order=100000, max_count=6000):
    """All subgroups plus the inclusion poset, deterministically ordered."""
    subs = enumerate_subgroups(G, max_order=max_order, max_count=max_count)
    n = len(subs)
    labels = _make_labels(subs)
    use_elements = G.order <= _ELEMENT_ORDER_LIMIT and G.k > 0
    up = [0] * n
    if use_elements:
        index = {t: i for i, t in enumerate(group_elements(G))}
        masks = [_element_mask(s, index) for s in subs]
        for i in range(n):
            mi = masks[i]
            oi = subs[i].order
            row = 0
            for j in range(n):
                if subs[j].order % oi == 0 and mi & ~masks[j] == 0:
                    row |= 1 << j
            up[i] = row
    else:
        for i in range(n):
            row = 0
            for j in range(n):
                if subs[j].order % subs[i].order == 0 and subs[j].contains(subs[i]):
                    row |= 1 << j
            up[i] = row
    poset = FinitePoset(n, labels, up, validate=False)
    return SubgroupLattice(G, subs, poset)


# ---------------------------------------------------------------------------
# Element-set engine (lattice order for small groups, oracle for tests)
# ---------------------------------------------------------------------------

_ELEMENT_ORDER_LIMIT = 4096


def _check_element_budget(G):
    if G.order > _ELEMENT_ORDER_LIMIT:
        raise BudgetExceededError(
            f"element-set engine is gated to |G| <= {_ELEMENT_ORDER_LIMIT}"
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


def _element_mask(H, index):
    mask = 0
    for t in subgroup_elements(H):
        mask |= 1 << index[t]
    return mask


def subgroup_from_elements(G, elements):
    """Canonical subgroup from an element set (closure assumed)."""
    cols = [list(t) for t in elements]
    return subgroup_from_columns(G, cols)


# ---------------------------------------------------------------------------
# Section types (closed form)
# ---------------------------------------------------------------------------


def section_type_keys(G):
    """Isomorphism types of sections H/K of G as primary-type keys.

    For an abelian p-group of type lambda the subgroup, quotient and section
    types are all exactly the partitions mu contained in lambda (Birkhoff
    1935; Macdonald, Symmetric Functions and Hall Polynomials, ch. II): the
    descending nonzero entries of the vectors c with 0 <= c_i <= lambda_i.
    So the keys are also the subgroup types of G, one partition per prime.
    """
    ptype = G.primary_type()
    primes = sorted(ptype)
    from itertools import product as iproduct

    per = [
        {tuple(sorted(filter(None, c), reverse=True))
         for c in iproduct(*[range(e + 1) for e in ptype[p]])}
        for p in primes
    ]
    keys = {primary_type_key(dict(zip(primes, combo))) for combo in iproduct(*per)}
    return sorted(keys)


def partitions(n):
    """Integer partitions of n, descending parts, deterministic order."""
    if n == 0:
        yield ()
        return

    def rec(remaining, maxpart):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(n, n)


def abelian_groups_of_order(n):
    """All isomorphism types of abelian groups of order n."""
    from itertools import product as iproduct

    per_prime = [
        [(p, part) for part in partitions(e)] for p, e in _factorize(n)
    ]
    out = []
    for combo in iproduct(*per_prime):
        factors = []
        for p, part in combo:
            for a in part:
                factors.append((p, a))
        out.append(AbelianGroup(factors))
    return out
