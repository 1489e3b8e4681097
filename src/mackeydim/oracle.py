"""Brute-force verification path: minimal projective resolutions of simples
over the incidence algebra of a finite poset.  Interval cohomology is never
consulted anywhere in this module.

Resolutions are summand-symbolic: projectives are sums of representables and
differentials are stored per summand as a single vector.  Multiplicities of
the minimal resolution of S_x read off dim Ext^n(S_x, S_y).
"""

from __future__ import annotations

from . import qlinalg

__all__ = [
    "OracleError",
    "minimal_resolution",
    "gldim_oracle",
    "ext_table_oracle",
]


class OracleError(Exception):
    pass


class _Resolution:
    """Minimal projective resolution of S_x over IA(P), summand-symbolic.

    Projectives are lists of summands (element, differential vector); the
    differential vector of a step-n summand at y is an integer vector over
    the step-(n-1) summands s with y <= y_s, stored as {s: coeff} and valid
    unchanged at every element below y.  Kernels and cover tops are exact.
    """

    def __init__(self, P, x, max_len):
        self.P = P
        self.x = x
        self.max_len = max_len
        self.down = [z for z in range(P.n) if P.leq(z, x)]
        self.cover_pairs = self._cover_pairs()
        self.multiplicities = []

    def _cover_pairs(self):
        # (w, w') with w' covering w inside the down-set of x
        pairs = {}
        P = self.P
        down = P.down
        down_mask = down[self.x]
        for w in self.down:
            ups = P.up[w] & down_mask & ~(1 << w)
            covers = []
            m = ups
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                between = ups & (down[j] & ~(1 << j))
                if between == 0:
                    covers.append(j)
            pairs[w] = covers
        return pairs

    def run(self):
        # step 0: P_0 = R_x covering S_x
        summands = [(self.x, None)]
        self.multiplicities.append({self.x: 1})
        # Omega_1(z) = ker(P_0(z) -> S_x(z)): everything below x, nothing at x
        omega = {}
        for z in self.down:
            if z == self.x:
                omega[z] = []
            else:
                omega[z] = [{0: 1}]
        degree = 0
        while True:
            if all(not v for v in omega.values()):
                break
            degree += 1
            if degree > self.max_len:
                raise OracleError(
                    f"resolution did not terminate within {self.max_len} steps"
                )
            new_summands, mult = self._cover_step(omega)
            self.multiplicities.append(mult)
            omega = self._syzygy(summands, new_summands, omega)
            summands = new_summands
        return self.multiplicities

    def _cover_step(self, omega):
        """Choose top lifts of omega per element; returns new summands."""
        new_summands = []
        mult = {}
        for z in sorted(self.down):
            vecs = omega[z]
            if not vecs:
                continue
            rad_rows = []
            for w in self.cover_pairs[z]:
                rad_rows.extend(omega[w])
            chosen = self._top_complement(vecs, rad_rows)
            if chosen:
                mult[z] = len(chosen)
                for v in chosen:
                    new_summands.append((z, v))
        return new_summands, mult

    def _top_complement(self, basis_vecs, rad_rows):
        """Basis vectors completing the radical span, greedily and exactly.

        Each chosen vector is independent of the radical rows and of the
        vectors chosen before it, so the chosen vectors lift a basis of the
        top: the cover is surjective and minimal by construction.
        """
        if not rad_rows:
            return list(basis_vecs)
        # the echelon reduces rows in place, so it is fed copies
        ech = qlinalg.IntEchelon()
        for v in rad_rows:
            ech.add(dict(v))
        return [v for v in basis_vecs if ech.add(dict(v))]

    def _syzygy(self, prev_summands, summands, prev_omega):
        """Exact kernels of the differential at every element, with audits."""
        P = self.P
        omega = {}
        for z in self.down:
            up_z = P.up[z]
            cols = [t for t, (y, _v) in enumerate(summands) if up_z >> y & 1]
            if not cols:
                if prev_omega[z]:
                    raise OracleError("cover misses an element with nonzero syzygy")
                omega[z] = []
                continue
            # a summand's vector is valid unchanged at every element below
            # its base, so it is the summand's column of the differential at z
            columns = [summands[t][1] for t in cols]
            kern = qlinalg.kernel_basis_sparse(columns, len(prev_summands))
            # exactness audit: the cover step spans the previous syzygy, so
            # dim ker + dim image = dim source
            if len(kern) != len(cols) - len(prev_omega[z]):
                raise OracleError("exactness audit failed at an element")
            # minimality audit: kernel coordinates on summands based at z vanish
            for vec in kern:
                if any(summands[cols[j]][0] == z for j in vec):
                    raise OracleError("cover is not minimal: kernel meets the top")
            omega[z] = [{cols[j]: v for j, v in vec.items()} for vec in kern]
        return omega


def minimal_resolution(P, x, max_len=None):
    """Multiplicity dicts {element: m} per homological degree for S_x.

    max_len defaults to height(P) + 2; exceeding it raises (a functoriality
    or minimality bug would show up as non-termination).
    """
    if max_len is None:
        max_len = P.height() + 2
    if max_len < P.height() + 1:
        raise OracleError("max_len below the height bound cannot certify termination")
    return _Resolution(P, x, max_len).run()


def gldim_oracle(P, max_len=None):
    """max over x of the length of the minimal resolution of S_x."""
    if P.n == 0:
        raise OracleError("global dimension of the empty poset is undefined")
    best = 0
    for x in range(P.n):
        mults = minimal_resolution(P, x, max_len=max_len)
        best = max(best, len(mults) - 1)
    return best


def ext_table_oracle(P, max_len=None):
    """All nonzero dim Ext^n(S_x, S_y) as {(x, y, n): dim}, by resolutions."""
    entries = {}
    for x in range(P.n):
        mults = minimal_resolution(P, x, max_len=max_len)
        for n, level in enumerate(mults):
            for y, m in sorted(level.items()):
                entries[(x, y, n)] = m
    return entries
