"""Reference route of `mackeydim.transfer.close`: the fixed-point closure.

Transitivity and restriction (K -> H and L <= H force K ^ L -> L) are
applied in turn until neither adds an arrow, with every meet read off an
n x n table built up front.  `mackeydim.transfer.close` takes one
restriction pass and one transitivity pass instead; the tests compare the
two routes.
"""

from mackeydim.posets import mask_indices


def meet_table(lattice):
    """meets[a][b] = a ^ b: the highest set bit of down[a] & down[b]."""
    down = lattice.poset.down
    n = len(down)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            common = down[a] & down[b]
            best = common.bit_length() - 1
            if best < 0 or common & ~down[best]:
                raise ValueError("ambient poset is not a meet-semilattice")
            table[a][b] = table[b][a] = best
    return table


def fixed_point_closure(lattice, generator_pairs, meets=None):
    """The into masks of the smallest transfer system holding the generators."""
    P = lattice.poset
    n = P.n
    into = [1 << h for h in range(n)]
    for (k, h) in generator_pairs:
        if not P.leq(k, h):
            raise ValueError("generator violates containment")
        into[h] |= 1 << k
    meets = meets if meets is not None else meet_table(lattice)
    down_lists = [mask_indices(row) for row in P.down]
    changed = True
    while changed:
        changed = False
        # transitivity: k -> h and j -> k give j -> h
        for h in range(n):
            row = into[h]
            acc = row
            for k in mask_indices(row):
                acc |= into[k]
            if acc != row:
                into[h] = acc
                changed = True
        # restriction
        for h in range(n):
            ks = mask_indices(into[h] & ~(1 << h))
            if not ks:
                continue
            for l in down_lists[h]:
                if l == h:
                    continue
                add = 0
                for k in ks:
                    add |= 1 << meets[l][k]
                if add & ~into[l]:
                    into[l] |= add
                    changed = True
    return tuple(into)
