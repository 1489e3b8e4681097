"""Finite posets, order complexes, and homotopy-safe reduction.

The order relation is stored as dense bitmask rows (Python ints), which keeps
interval extraction and transitive-reduction computations cheap at the sizes
that occur here (up to a few thousand elements).  A sub-poset can stay a
bitmask of its parent: dismantle_mask and order_complex take one and read
only the parent's masks, so an interval needs no FinitePoset of its own.
The restricted routes (open_interval, dismantle) and the isomorphism test
are test oracles in tests/poset_oracle.py.
"""

from __future__ import annotations


__all__ = [
    "PosetError",
    "FinitePoset",
    "OrderComplex",
    "order_complex",
    "product",
    "dismantle_mask",
    "mask_indices",
    "union_lookup",
    "transpose",
    "parse_poset_text",
    "poset_to_text",
    "hasse_dot",
]


class PosetError(Exception):
    pass


class FinitePoset:
    """Elements 0..n-1 with a reflexive, antisymmetric, transitive relation.

    up[i] is the bitmask of j with i <= j; down[i] the bitmask of j <= i.
    A caller that already holds the down masks passes them as `down`;
    otherwise they are transposed from `up` the first time `down` is read,
    so a poset that is only walked upwards never builds them.
    """

    __slots__ = ("n", "labels", "up", "_down", "_covers", "_upper_covers", "_height")

    def __init__(self, n, labels, up, validate=True, down=None):
        self.n = n
        self.labels = tuple(labels)
        self.up = tuple(up)
        if len(self.labels) != n or len(self.up) != n:
            raise PosetError("label/relation size mismatch")
        self._down = None if down is None else tuple(down)
        self._covers = None
        self._upper_covers = None
        self._height = None
        if validate:
            self._validate()

    @property
    def down(self):
        if self._down is None:
            self._down = tuple(transpose(self.up))
        return self._down

    def _validate(self):
        n = self.n
        up = self.up
        for i in range(n):
            if not (up[i] >> i) & 1:
                raise PosetError(f"relation not reflexive at {self.labels[i]}")
        for i in range(n):
            row = up[i]
            mask = row & ~(1 << i)
            while mask:
                j = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if (up[j] >> i) & 1:
                    raise PosetError(
                        f"antisymmetry fails: {self.labels[i]} <> {self.labels[j]}"
                    )
                if up[j] & ~row:
                    raise PosetError(
                        f"transitivity fails above {self.labels[i]} via {self.labels[j]}"
                    )

    @classmethod
    def from_covers(cls, labels, cover_pairs):
        """Build from Hasse covers; the transitive closure is computed."""
        labels = list(labels)
        n = len(labels)
        up = [1 << i for i in range(n)]
        succ = [[] for _ in range(n)]
        for a, b in cover_pairs:
            succ[a].append(b)
        # closure by iterative DFS; cycle detection via colouring
        state = [0] * n
        for root in range(n):
            if state[root] == 2:
                continue
            stack = [(root, 0)]
            state[root] = 1
            while stack:
                i, k = stack[-1]
                if k < len(succ[i]):
                    stack[-1] = (i, k + 1)
                    j = succ[i][k]
                    if state[j] == 1:
                        raise PosetError("cover relation has a cycle")
                    if state[j] == 0:
                        state[j] = 1
                        stack.append((j, 0))
                else:
                    for j in succ[i]:
                        up[i] |= up[j]
                    state[i] = 2
                    stack.pop()
        return cls(n, labels, up)

    def leq(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def covers(self):
        """Transitive reduction as a sorted list of (lower, upper) pairs."""
        if self._covers is None:
            out = []
            down = self.down
            for i in range(self.n):
                strict = self.up[i] & ~(1 << i)
                mask = strict
                while mask:
                    j = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    # j covers i iff nothing lies strictly between
                    between = strict & (down[j] & ~(1 << j))
                    if between == 0:
                        out.append((i, j))
            self._covers = sorted(out)
        return self._covers

    def upper_covers(self):
        """For each element, the mask of the elements covering it; built
        once, off covers()."""
        if self._upper_covers is None:
            above = [0] * self.n
            for lo, hi in self.covers():
                above[lo] |= 1 << hi
            self._upper_covers = tuple(above)
        return self._upper_covers

    def height(self):
        """Length in edges of the longest strict chain; 0 if discrete/empty."""
        if self._height is None:
            n = self.n
            down = self.down
            order = sorted(range(n), key=lambda i: down[i].bit_count())
            h = [0] * n
            for i in order:
                mask = down[i] & ~(1 << i)
                best = 0
                while mask:
                    j = (mask & -mask).bit_length() - 1
                    mask &= mask - 1
                    if h[j] + 1 > best:
                        best = h[j] + 1
                h[i] = best
            self._height = max(h) if n else 0
        return self._height

    def restrict(self, indices):
        """Induced sub-poset on the given indices (kept in the given order)."""
        indices = list(indices)
        pos = {v: k for k, v in enumerate(indices)}
        keep_mask = 0
        for v in indices:
            keep_mask |= 1 << v
        up = []
        for v in indices:
            row = self.up[v] & keep_mask
            new = 0
            while row:
                j = (row & -row).bit_length() - 1
                row &= row - 1
                new |= 1 << pos[j]
            up.append(new)
        return FinitePoset(
            len(indices), [self.labels[v] for v in indices], up, validate=False
        )

    def __repr__(self):
        return f"FinitePoset({self.n} elements)"

    def __eq__(self, other):
        return (
            isinstance(other, FinitePoset)
            and self.labels == other.labels
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.labels, self.up))


class OrderComplex:
    """Strict chains of a poset, grouped by dimension.

    simplices_by_dim[d] lists the chains with d+1 elements, each as a tuple
    of indices ordered along the chain, the lists in lexicographic order.
    """

    __slots__ = ("simplices_by_dim",)

    def __init__(self, simplices_by_dim):
        self.simplices_by_dim = [list(level) for level in simplices_by_dim]
        while self.simplices_by_dim and not self.simplices_by_dim[-1]:
            self.simplices_by_dim.pop()

    def total_simplices(self):
        return sum(len(level) for level in self.simplices_by_dim)


def order_complex(P, mask=None):
    """Strict chains of the sub-poset of P induced on mask (all of P when
    mask is None), as tuples of P's own indices.

    Each dimension is in lexicographic order: chains of one length are
    extended by their successors in ascending index order, which keeps them
    sorted.  Restricting P to mask_indices(mask) relabels monotonically, so
    its chains are these, relabelled, in the same order.
    """
    if mask is None:
        mask = (1 << P.n) - 1
    up = P.up
    levels = []
    chains = [(i,) for i in mask_indices(mask)]
    while chains:
        levels.append(chains)
        nxt = []
        for chain in chains:
            last = chain[-1]
            m = up[last] & mask & ~(1 << last)
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                nxt.append(chain + (j,))
        chains = nxt
    return OrderComplex(levels)


def mask_indices(mask):
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def union_lookup(masks):
    """out[m]: the union of masks[i] over the set bits i of m, for every m
    below 2^len(masks).  Each entry adds one mask to an entry already filled."""
    out = [0] * (1 << len(masks))
    for m in range(1, len(out)):
        low = m & -m
        out[m] = out[m ^ low] | masks[low.bit_length() - 1]
    return out


def transpose(rows):
    """The transposed relation of n masks on n elements: bit i of out[j] is
    bit j of rows[i].  A poset's down masks are the transpose of its up masks."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        bit = 1 << i
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return out


def product(P, Q):
    """Componentwise order on pairs; labels joined by `|`."""
    labels = []
    up = []
    nq = Q.n
    for i in range(P.n):
        for j in range(Q.n):
            labels.append(f"{P.labels[i]}|{Q.labels[j]}")
            rowp = P.up[i]
            row = 0
            mp = rowp
            while mp:
                a = (mp & -mp).bit_length() - 1
                mp &= mp - 1
                row |= Q.up[j] << (a * nq)
            up.append(row)
    return FinitePoset(P.n * Q.n, labels, up, validate=False)


def dismantle_mask(P, mask):
    """Dismantle the sub-poset of P induced on mask; return the survivors' mask.

    Irreducible points are removed until none remain, so the homotopy type
    is preserved: a point is removable when its strict up-set has a minimum
    or its strict down-set has a maximum (the retraction onto the rest moves
    every element in one direction, so the order complexes are homotopy
    equivalent).  Only P's up and down masks are read, limited to the points
    still alive, so the induced sub-poset is never built; the points are
    visited in ascending index order, as they would be after restricting P
    to mask, and the survivors are the same.
    """
    up = P.up
    down = P.down
    alive = mask

    def has_extreme(mask, dual):
        # an element of `mask` below (above) all of it lies in dual[k], the
        # down-set (up-set) of k, for every k in mask; stop once none is left
        acc = m = mask
        while m and acc:
            k = (m & -m).bit_length() - 1
            m &= m - 1
            acc &= dual[k]
        return acc != 0

    changed = True
    while changed:
        changed = False
        m = alive
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            upset = up[i] & alive & ~(1 << i)
            if upset and has_extreme(upset, down):
                alive &= ~(1 << i)
                changed = True
                continue
            downset = down[i] & alive & ~(1 << i)
            if downset and has_extreme(downset, up):
                alive &= ~(1 << i)
                changed = True
    return alive


# ---------------------------------------------------------------------------
# Text format and DOT export
# ---------------------------------------------------------------------------


def parse_poset_text(text):
    """Poset file format: one `elements:` line, then `cover: a < b` lines."""
    labels = None
    covers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("elements:"):
            if labels is not None:
                raise PosetError(f"line {lineno}: repeated elements line")
            labels = line[len("elements:") :].split()
            idx = {lab: k for k, lab in enumerate(labels)}
            if len(idx) != len(labels):
                raise PosetError(f"line {lineno}: duplicate labels")
        elif line.startswith("cover:"):
            if labels is None:
                raise PosetError(f"line {lineno}: cover before elements")
            body = line[len("cover:") :]
            parts = [p.strip() for p in body.split("<")]
            if len(parts) != 2 or not all(parts):
                raise PosetError(f"line {lineno}: expected `cover: a < b`")
            for p in parts:
                if p not in idx:
                    raise PosetError(f"line {lineno}: unknown element {p!r}")
            covers.append((idx[parts[0]], idx[parts[1]]))
        else:
            raise PosetError(f"line {lineno}: unrecognised line {line!r}")
    if labels is None:
        raise PosetError("missing elements line")
    return FinitePoset.from_covers(labels, covers)


def poset_to_text(P):
    lines = ["elements: " + " ".join(P.labels)]
    for a, b in P.covers():
        lines.append(f"cover: {P.labels[a]} < {P.labels[b]}")
    return "\n".join(lines) + "\n"


def hasse_dot(P, name="poset"):
    """Hasse diagram as DOT, edges pointing from smaller to larger element."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, lab in enumerate(P.labels):
        lines.append(f'  n{i} [label="{lab}"];')
    for a, b in P.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
