"""Reference route of `mackeydim.oracle`: the minimal projective resolution of
each simple over IA(P), recomputed from scratch at every element.

At every element z below x the kernel of the differential is a fresh
`kernel_basis_sparse` over all the columns of z, the cover top is a greedy
complement of the whole radical in the whole kernel, and every simple is
resolved on its own.  `mackeydim.oracle` continues each kernel from a cover,
tests tops in the new columns only and resolves each distinct down-set once;
the tests compare the two routes.
"""

from mackeydim import qlinalg
from mackeydim.oracle import OracleError

from linalg_oracle import kernel_basis_sparse


class Resolution:
    """Minimal projective resolution of S_x over IA(P), summand-symbolic.

    Projectives are lists of summands (element, differential vector); the
    differential vector of a step-n summand at y is an integer vector over
    the step-(n-1) summands s with y <= y_s, stored as {s: coeff} and valid
    unchanged at every element below y.
    """

    def __init__(self, P, x, max_len):
        self.P = P
        self.x = x
        self.max_len = max_len
        down_mask = P.down[x]
        self.down = [z for z in range(P.n) if down_mask >> z & 1]
        self.covers = {}
        for w in self.down:
            above = P.up[w] & down_mask & ~(1 << w)
            self.covers[w] = [j for j in self.down
                              if above >> j & 1 and not above & P.down[j] & ~(1 << j)]

    def run(self):
        summands = [(self.x, None)]
        multiplicities = [{self.x: 1}]
        omega = {z: [] if z == self.x else [{0: 1}] for z in self.down}
        degree = 0
        while any(omega.values()):
            degree += 1
            if degree > self.max_len:
                raise OracleError(f"resolution did not terminate within {self.max_len} steps")
            new_summands, mult = self._cover_step(omega)
            multiplicities.append(mult)
            omega = self._syzygy(summands, new_summands, omega)
            summands = new_summands
        return multiplicities

    def _cover_step(self, omega):
        new_summands = []
        mult = {}
        for z in self.down:
            if not omega[z]:
                continue
            ech = qlinalg.IntEchelon()
            for w in self.covers[z]:
                for v in omega[w]:
                    ech.add(dict(v))
            chosen = [v for v in omega[z] if ech.add(dict(v))]
            if chosen:
                mult[z] = len(chosen)
                new_summands += [(z, v) for v in chosen]
        return new_summands, mult

    def _syzygy(self, prev_summands, summands, prev_omega):
        omega = {}
        for z in self.down:
            cols = [t for t, (y, _v) in enumerate(summands) if self.P.up[z] >> y & 1]
            kern = kernel_basis_sparse([summands[t][1] for t in cols], len(prev_summands))
            if len(kern) != len(cols) - len(prev_omega[z]):
                raise OracleError("exactness audit failed at an element")
            if any(summands[cols[j]][0] == z for vec in kern for j in vec):
                raise OracleError("cover is not minimal: kernel meets the top")
            omega[z] = [{cols[j]: v for j, v in vec.items()} for vec in kern]
        return omega


def minimal_resolution_reference(P, x):
    return Resolution(P, x, P.height() + 2).run()


def ext_table_reference(P):
    """{(x, y, n): dim Ext^n(S_x, S_y)}, one resolution per simple."""
    entries = {}
    for x in range(P.n):
        for n, level in enumerate(minimal_resolution_reference(P, x)):
            for y, m in sorted(level.items()):
                entries[(x, y, n)] = m
    return entries
