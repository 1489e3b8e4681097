"""Finite abelian group arithmetic on canonical HNF subgroup lattices.

A group is a product of cyclic factors of prime-power order; a subgroup of
a primary part is the canonical column-HNF basis (a block) of an integer
lattice L with diag(n_1..n_k) Z^k <= L <= Z^k, so equality of subgroups is
bitwise equality of blocks.  For coprime orders Sub(A x B) = Sub(A) x
Sub(B) (R. Schmidt, Subgroup Lattices of Groups, 1994, 1.6), so
subgroup_lattice builds one table per primary part (its subgroups, their
orders, up-sets, Frattini subgroups and types) and reads the lattice of G
off their product.  A primary part's subgroups come from one recursive HNF
enumerator (_prime_block_bases).  Orders, Frattini subgroups, labels and
section types all split by prime, so no Smith normal form is taken
(_PrimeTable.phi, SubgroupLattice.section_type).  The lattice names a
subgroup by its index alone; the HNF basis of the whole subgroup, with
meets and joins on it, is the test oracle in tests/group_oracle.py.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from math import prod
from operator import add, mod

from .posets import FinitePoset

__all__ = [
    "GroupError",
    "ParseError",
    "BudgetExceededError",
    "ContainmentError",
    "AbelianGroup",
    "SubgroupLattice",
    "parse_group",
    "subgroup_lattice",
    "primary_type_key",
    "type_name",
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


# One fixed budget on group specs, checked before any power or
# factorisation is computed: prime factors are found by trial division up
# to _TRIAL_LIMIT, so a cofactor left above _COFACTOR_LIMIT = _TRIAL_LIMIT^2
# may be composite and is refused, and the exponents of a spec sum to at
# most _EXPONENT_LIMIT.  So no number in a spec within the budget has more
# digits than _COFACTOR_LIMIT^_EXPONENT_LIMIT.
_TRIAL_LIMIT = 10**6
_COFACTOR_LIMIT = _TRIAL_LIMIT**2
_EXPONENT_LIMIT = 64
_MAX_DIGITS = len(str(_COFACTOR_LIMIT**_EXPONENT_LIMIT))


def _factorize(n):
    """Prime factorisation of n; ParseError past the trial-division budget."""
    out = []
    d = 2
    while d * d <= n:
        if d > _TRIAL_LIMIT:
            raise ParseError(
                f"{n} has no prime factor up to {_TRIAL_LIMIT} and exceeds {_COFACTOR_LIMIT}"
            )
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _is_prime(n):
    return n > 1 and _factorize(n) == [(n, 1)]


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


def _number(digits, spec):
    if len(digits.lstrip("0")) > _MAX_DIGITS:
        raise ParseError(f"a number in {spec!r} exceeds the factorisation budget")
    return int(digits)


def parse_group(spec):
    """Parse `C<n>` terms joined by `x`, or `<p>^<e>` terms joined by `*`.

    The exponents sum to at most _EXPONENT_LIMIT, and every prime is
    found or certified within the trial-division budget; past either the
    spec is refused before any power is computed.
    """
    s = spec.strip().lower().replace(" ", "")
    if not s:
        raise ParseError("empty group spec")
    factors = []
    if s.startswith("c") or "x" in s:
        for tok in s.split("x"):
            m = _CN_RE.match(tok)
            if not m:
                raise ParseError(f"bad cyclic term {tok!r} in {spec!r}")
            n = _number(m.group(1), spec)
            if n == 0:
                raise ParseError("C0 is not a group")
            factors.extend(_factorize(n))
            _check_exponents(factors, spec)
        return AbelianGroup(factors)
    for tok in s.split("*"):
        m = _PE_RE.match(tok)
        if not m:
            raise ParseError(f"bad prime-power term {tok!r} in {spec!r}")
        p = _number(m.group(1), spec)
        e = _number(m.group(2), spec) if m.group(2) else 1
        if e < 1:
            raise ParseError(f"exponent {e} < 1 in {spec!r}")
        factors.append((p, e))
        _check_exponents(factors, spec)
        if p == 1:
            if m.group(2) is None and len(s.split("*")) == 1:
                raise ParseError("1 is not a prime; use C1 for the trivial group")
            raise ParseError("factor 1 is not allowed")
        if not _is_prime(p):
            raise ParseError(f"{p} is not prime in {spec!r}")
    return AbelianGroup(factors)


def _check_exponents(factors, spec):
    total = sum(e for _p, e in factors)
    if total > _EXPONENT_LIMIT:
        raise ParseError(f"exponents sum to {total} > {_EXPONENT_LIMIT} in {spec!r}")


def primary_type_key(type_map):
    return tuple(sorted((p, tuple(sorted(part, reverse=True))) for p, part in type_map.items() if part))


def type_name(type_key):
    """`C<d_1>x...xC<d_r>`: the invariant factors d_1 | ... | d_r of a group
    of this primary type, ascending; d_{r+1-i} multiplies the i-th largest
    part of every prime.  The trivial group is `C1`."""
    rank = max((len(part) for _p, part in type_key), default=0)
    invariants = [1] * rank
    for p, part in type_key:
        for i, e in enumerate(part):
            invariants[i] *= p**e
    return "x".join(f"C{d}" for d in reversed(invariants)) or "C1"


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


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _sub_partitions(part):
    """The partitions mu contained in part: the descending nonzero entries
    of the vectors c with 0 <= c_i <= part_i."""
    from itertools import product as iproduct

    return {tuple(sorted(filter(None, c), reverse=True))
            for c in iproduct(*[range(e + 1) for e in part])}


def _conjugate(part, length):
    """The conjugate partition, padded with zeros to the given length."""
    return [sum(1 for e in part if e > t) for t in range(length)]


def _gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subgroup_count(p, exps):
    """Number of subgroups of the abelian p-group prod C_{p^e}, e in exps.

    A group of type lambda has alpha_lambda(mu; p) subgroups of type mu for
    each mu contained in lambda, and with the conjugates lambda', mu'
    alpha_lambda(mu; p) = prod_i p^{mu'_{i+1} (lambda'_i - mu'_i)}
    [lambda'_i - mu'_{i+1}, mu'_i - mu'_{i+1}]_p (Butler, Subgroup lattices
    and symmetric functions, Mem. AMS 539, 1994), so no block is built.
    """
    length = max(exps, default=0)
    lam = _conjugate(exps, length)
    total = 0
    for mu in _sub_partitions(exps):
        nu = _conjugate(mu, length + 1)
        term = 1
        for i, li in enumerate(lam):
            term *= p ** (nu[i + 1] * (li - nu[i])) * _gaussian_binomial(
                li - nu[i + 1], nu[i] - nu[i + 1], p)
        total += term
    return total


def _block_order(moduli, block):
    order = 1
    for j, col in enumerate(block):
        order *= moduli[j] // col[j]
    return order


def _lattice_sorted(moduli, blocks, count):
    """Blocks sorted by order, then row-major basis: the lattice order.
    They must be `count` distinct blocks."""
    blocks = set(blocks)
    if len(blocks) != count:
        raise GroupError("block count differs from the closed-form subgroup count")
    m = len(moduli)

    def key(block):
        return (_block_order(moduli, block),
                tuple(block[j][i] for i in range(m) for j in range(m)))

    return tuple(sorted(blocks, key=key))


@lru_cache(maxsize=None)
def _prime_block_bases(p, exps):
    """All canonical HNF blocks for the abelian p-group prod C_{p^e}.

    exps is the ascending exponent tuple (matching factor order).  Returns
    column lists (m x m lower-triangular HNF) for every subgroup lattice
    between diag(p^e) Z^m and Z^m, sorted as the subgroups of that p-group
    are (_lattice_sorted).
    """
    from itertools import product as iproduct

    m = len(exps)
    moduli = [p**e for e in exps]
    # recursive column-wise enumeration with exact pruning; column j is
    # chosen after columns > j, and N_j e_j must already lie in the span of
    # columns >= j (pairwise divisibility is not sufficient)
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
        for vals in iproduct(*[range(diag[i]) for i in below]):
            col = [0] * m
            col[j] = d
            for i, v in zip(below, vals):
                col[i] = v
            cols_from_j = [col] + suffix_cols
            if span_check(cols_from_j, j):
                build(j - 1, diag, cols_from_j)

    for diag in iproduct(*divisor_choices):
        build(m - 1, list(diag), [])
    return _lattice_sorted(moduli, results, _subgroup_count(p, exps))


def _primary_parts(G, max_order, max_count):
    """(p, ascending exponents, blocks) per prime of G, primes ascending.

    The subgroup count is the product of the primary parts' counts, which
    _subgroup_count gives in closed form, so both budgets are checked before
    any block, subgroup or table is built.
    """
    if G.order > max_order:
        raise BudgetExceededError(
            f"|G| = {G.order} exceeds enumeration budget {max_order}"
        )
    ptype = {}
    for p, e in G.factors:
        ptype.setdefault(p, []).append(e)
    count = 1
    for p, es in ptype.items():
        count *= _subgroup_count(p, es)
    if max_count is not None and count > max_count:
        raise BudgetExceededError(f"subgroup count exceeds {max_count}", found=count)
    return [(p, tuple(es), _prime_block_bases(p, tuple(es))) for p, es in sorted(ptype.items())]


def _lattice_order(parts):
    """(order, per-prime block indices) of every subgroup, in lattice order.

    G's factors are sorted by prime, so a subgroup's basis is block diagonal
    and its row-major flattening lists the primes' blocks in turn.  At a
    fixed order every block's order is fixed too, so sorting by (order,
    block indices) is sorting by (order, row-major basis).
    """
    from itertools import product as iproduct

    moduli = [[p**e for e in exps] for p, exps, _blocks in parts]
    orders = [[_block_order(mod, b) for b in blocks] for mod, (_p, _e, blocks) in zip(moduli, parts)]
    keyed = []
    for comps in iproduct(*[range(len(o)) for o in orders]):
        order = 1
        for o, c in zip(orders, comps):
            order *= o[c]
        keyed.append((order, comps))
    keyed.sort()
    return keyed


# Up to this many elements a primary part's inclusion order comes from
# element sets; above it, from HNF membership of the block columns.
_ELEMENT_ORDER_LIMIT = 4096


def _element_up_masks(moduli, blocks):
    """Up-masks of the blocks of one primary part, from element sets.

    Block i holds the elements sum_j a_j c_j with 0 <= a_j < n_j / c_j[j],
    each exactly once since the columns c_j are in HNF.  containing[x] is
    the mask of the blocks holding element x, and the blocks above block i
    are those holding each of its columns.
    """
    containing = {}
    get = containing.get
    zero = (0,) * len(moduli)
    for i, block in enumerate(blocks):
        elements = [zero]
        for j, col in enumerate(block):
            grown = list(elements)
            step = elements
            for _ in range(1, moduli[j] // col[j]):
                step = [tuple(map(mod, map(add, x, col), moduli)) for x in step]
                grown += step
            elements = grown
        if len(set(elements)) != _block_order(moduli, block):
            raise GroupError("element count differs from the subgroup order")
        bit = 1 << i
        for x in elements:
            containing[x] = get(x, 0) | bit
    up = []
    for block in blocks:
        row = -1
        for col in block:
            row &= containing[tuple(map(mod, col, moduli))]
        up.append(row)
    return up


def _span_up_masks(sizes, blocks):
    """Up-masks of the blocks of one primary part, by HNF membership."""
    n = len(blocks)
    up = []
    for i, block in enumerate(blocks):
        row = 1 << i
        # sorted by order, so a proper overgroup comes later and is larger
        for j in range(i + 1, n):
            if sizes[j] > sizes[i] and all(_in_span(blocks[j], col) for col in block):
                row |= 1 << j
        up.append(row)
    return up


class _PrimeTable:
    """Sub(P) for one primary part P = prod_j C_{p^e_j} of G.

    Block i is the i-th subgroup of P in lattice order, so a p-group's
    lattice is its table.  sizes[i] is log_p of its order, up[i] and down[i]
    the masks of the blocks containing it and contained in it, phi[i] its
    Frattini subgroup and types[i] its type, a descending partition.
    """

    __slots__ = ("p", "sizes", "up", "down", "phi", "types")

    def __init__(self, p, exps, blocks):
        moduli = [p**e for e in exps]
        n = len(blocks)
        self.p = p
        self.sizes = sizes = [
            sum(e - _valuation(col[j], p) for j, (e, col) in enumerate(zip(exps, b)))
            for b in blocks
        ]
        if p ** sum(exps) <= _ELEMENT_ORDER_LIMIT:
            self.up = up = _element_up_masks(moduli, blocks)
        else:
            self.up = up = _span_up_masks(sizes, blocks)
        self.down = down = [0] * n
        for i, row in enumerate(up):
            while row:
                j = (row & -row).bit_length() - 1
                row &= row - 1
                down[j] |= 1 << i
        by_size = {}
        for j, s in enumerate(sizes):
            by_size[s] = by_size.get(s, 0) | 1 << j
        # Phi(H) is the meet of the subgroups of index p in H, and sorted by
        # order it is the highest block below all of them
        self.phi = phi = []
        for h in range(n):
            acc = down[h]
            maximal = down[h] & by_size.get(sizes[h] - 1, 0)
            while maximal:
                j = (maximal & -maximal).bit_length() - 1
                maximal &= maximal - 1
                acc &= down[j]
            phi.append(acc.bit_length() - 1)
        self.types = [self.section_type(h, 0) for h in range(n)]

    def pair_counts(self):
        """(pairs k <= h, pairs phi[h] <= k <= h) of blocks."""
        down, up, phi = self.down, self.up, self.phi
        return (sum(row.bit_count() for row in down),
                sum((row & up[f]).bit_count() for row, f in zip(down, phi)))

    def section_type(self, h, k):
        """Partition of H/K for blocks k <= h.

        Phi^t(H) K / K = Phi^t(H/K), so s_t = log_p |Phi^t(H) v K| - log_p |K|
        has s_t - s_{t+1} equal to the number of parts of H/K above t;
        conjugating those counts gives the partition.  The join of a and k
        is the lowest set bit of up[a] & up[k], since blocks are sorted by
        order.
        """
        up, sizes, phi = self.up, self.sizes, self.phi
        base = sizes[k]
        up_k = up[k]
        above = []  # above[t]: the number of parts larger than t
        a = h
        s = sizes[h] - base
        while s:
            a = phi[a]
            joined = up[a] & up_k
            nxt = sizes[(joined & -joined).bit_length() - 1] - base
            above.append(s - nxt)
            s = nxt
        return tuple(sum(1 for c in above if c > j) for j in range(above[0])) if above else ()


class SubgroupLattice:
    """Subgroups of G, by index, with the inclusion poset and labels.

    Sub(G) is the product of the primary tables, which are built with the
    lattice.  Everything else is read off them on first use, so a caller
    that needs only the tables (pair_counts) builds no mask or label.
    _keyed[i] is subgroup i's order and its block index in each primary
    table; no basis of the whole subgroup is built.
    """

    def __init__(self, group, parts):
        self.group = group
        self._parts = parts
        self._tables = [_PrimeTable(p, exps, blocks) for p, exps, blocks in parts]
        self.n = prod(len(t.sizes) for t in self._tables)

    @cached_property
    def _keyed(self):
        return _lattice_order(self._parts)

    @cached_property
    def _comps(self):
        return [comps for _order, comps in self._keyed]

    @cached_property
    def poset(self):
        """The inclusion order: for each prime p, U_p[c] is the mask of the
        subgroups whose p-component lies above block c, and the up-set of a
        subgroup is the AND over p of U_p at its p-component."""
        n = self.n
        tables, comps = self._tables, self._comps
        down = None
        if len(tables) == 1:
            # a p-group's lattice is its table, down masks included
            up, down = tables[0].up, tables[0].down
        else:
            up = [(1 << n) - 1] * n
            for pos, t in enumerate(tables):
                at = [0] * len(t.up)
                for g, c in enumerate(comps):
                    at[c[pos]] |= 1 << g
                above = []
                for row in t.up:
                    acc = 0
                    while row:
                        c = (row & -row).bit_length() - 1
                        row &= row - 1
                        acc |= at[c]
                    above.append(acc)
                up = [row & above[c[pos]] for row, c in zip(up, comps)]
        keys = [_component_type(tables, c) for c in comps]
        names = {key: type_name(key) for key in set(keys)}
        labels = _make_labels([names[key] for key in keys])
        return FinitePoset(n, labels, up, validate=False, down=down)

    @cached_property
    def _by_label(self):
        return {lab: i for i, lab in enumerate(self.poset.labels)}

    def index_of_label(self, label):
        try:
            return self._by_label[label]
        except KeyError:
            raise GroupError(f"no subgroup labelled {label!r}") from None

    def label(self, i):
        return self.poset.labels[i]

    def order(self, i):
        return self._keyed[i][0]

    # subgroups are sorted by order, so 1 comes first and G last
    def top_index(self):
        return self.n - 1

    def bottom_index(self):
        return 0

    def pair_counts(self):
        """(pairs K <= H, pairs Phi(H) <= K <= H) of subgroups of G.

        Sub(G) is the product of the primary lattices and Phi(H) the product
        of the Frattini subgroups of H's primary components, so each count is
        the product over the primary tables of the same count there.
        """
        comparable = frattini = 1
        for t in self._tables:
            a, e = t.pair_counts()
            comparable *= a
            frattini *= e
        return comparable, frattini

    def subgroup_type(self, i):
        """Primary-type key of subgroup i, off the primary tables."""
        return _component_type(self._tables, self._comps[i])

    def section_type(self, h, k):
        """Primary-type key of H/K for subgroups k <= h: the p-part of H/K is
        the section of their p-components, read off the table of p."""
        if not self.poset.up[k] >> h & 1:
            raise ContainmentError("K is not contained in H")
        return tuple(
            (t.p, t.section_type(a, b))
            for t, a, b in zip(self._tables, self._comps[h], self._comps[k])
            if a != b
        )


def _component_type(tables, comps):
    # block 0 of every table is the trivial subgroup
    return tuple((t.p, t.types[c]) for t, c in zip(tables, comps) if c)


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _make_labels(names):
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
    return SubgroupLattice(G, _primary_parts(G, max_order, max_count))


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

    per = [_sub_partitions(ptype[p]) for p in primes]
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
