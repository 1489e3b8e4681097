"""Reference route of `mackeydim.mackey.family_gldims`: one system at a time.

gldim(O_S) = max_j r(c_S(j)/j), with c_S(j) the least member of the family
S above j, read off `mackey._class_tops` for each family and memoized per
pair (j, c_S(j)).  `mackeydim.mackey.family_gldims` reads every gldim of a
lattice off per-degree miss masks instead; the tests compare the two routes.
"""

from mackeydim import mackey


def gldim_of_family(lattice, family, counts):
    """gldim of the disk-like system with family S, in closed form:
    max over subgroups j of r(c_S(j)/j).

    r only falls on passing to a quotient, so this is the max over each
    class of r(top/minimal member), as in class_dim.  `counts` is a dict
    that memoizes r per pair (j, c_S(j)) across calls on one lattice.
    """
    best = 0
    for j, c in enumerate(mackey._class_tops(lattice, family)):
        if c != j:
            r = counts.get((j, c))
            if r is None:
                r = counts[(j, c)] = mackey._factor_count(lattice, c, j)
            best = max(best, r)
    return best
