"""Brute-force references for the poset layer.

- open_interval builds the open interval (y, x) as a poset of its own, and
  dismantle dismantles a whole poset: the restricted routes that
  `izext.ext_dims` avoids by walking intervals as masks of the parent.
- poset_isomorphic is a backtracking isomorphism test.
- transpose builds down masks from up masks one relation at a time, as
  FinitePoset did eagerly before it built them on first read.
"""

from mackeydim.posets import PosetError, dismantle_mask, mask_indices


def transpose(up):
    """down masks from up masks, one relation at a time."""
    down = [0] * len(up)
    for i, row in enumerate(up):
        for j in mask_indices(row):
            down[j] |= 1 << i
    return tuple(down)


def open_interval(P, x, y):
    """Induced sub-poset on {z : y < z < x}; empty when y is not below x."""
    if not (0 <= x < P.n and 0 <= y < P.n):
        raise PosetError("interval endpoint out of range")
    return P.restrict(mask_indices(P.down[x] & P.up[y] & ~(1 << x) & ~(1 << y)))


def dismantle(P):
    """P dismantled (dismantle_mask on the whole poset), P itself when no
    point is removable."""
    everything = (1 << P.n) - 1
    alive = dismantle_mask(P, everything)
    return P if alive == everything else P.restrict(mask_indices(alive))


def _iso_invariant(P):
    """Per-element invariant used to cut the isomorphism search space."""
    inv = [(P.down[i].bit_count(), P.up[i].bit_count()) for i in range(P.n)]
    # refine by multiset of neighbour invariants, twice
    for _ in range(2):
        inv = [
            (inv[i],
             tuple(sorted(inv[j] for j in mask_indices(P.down[i] & ~(1 << i)))),
             tuple(sorted(inv[j] for j in mask_indices(P.up[i] & ~(1 << i)))))
            for i in range(P.n)
        ]
    return inv


def poset_isomorphic(P, Q):
    """Backtracking isomorphism test (correctness over speed)."""
    if P.n != Q.n:
        return False
    ip = _iso_invariant(P)
    iq = _iso_invariant(Q)
    if sorted(ip) != sorted(iq):
        return False
    candidates = [[j for j in range(Q.n) if iq[j] == ip[i]] for i in range(P.n)]
    order = sorted(range(P.n), key=lambda i: len(candidates[i]))
    assignment = [-1] * P.n
    used = [False] * Q.n

    def ok(i, j, depth):
        for k in order[:depth]:
            jk = assignment[k]
            if P.leq(i, k) != Q.leq(j, jk) or P.leq(k, i) != Q.leq(jk, j):
                return False
        return True

    def backtrack(depth):
        if depth == P.n:
            return True
        i = order[depth]
        for j in candidates[i]:
            if used[j] or not ok(i, j, depth):
                continue
            assignment[i] = j
            used[j] = True
            if backtrack(depth + 1):
                return True
            used[j] = False
            assignment[i] = -1
        return False

    return backtrack(0)
