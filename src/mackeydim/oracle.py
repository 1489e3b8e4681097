"""Brute-force verification path: minimal projective resolutions of simples
over the incidence algebra of a finite poset.  Interval cohomology is never
consulted anywhere in this module.

Resolutions are summand-symbolic: projectives are sums of representables and
differentials are stored per summand as a single vector.  Multiplicities of
the minimal resolution of S_x read off dim Ext^n(S_x, S_y).

Three kinds of repeated work are skipped, none of which changes a
multiplicity or an audit:
- each element's kernel is continued from the saved echelon of its widest
  cover, so only the columns that cover lacks are reduced (`_syzygy`);
- the top of a syzygy is tested in those new columns only (`_cover_step`);
- `ext_table_oracle` resolves each distinct down-set once per call: the
  resolution of S_x reads only the order on down(x).
The route that recomputes every kernel and top from scratch and resolves
every simple on its own is the reference in tests/resolution_oracle.py.
"""

from __future__ import annotations

from . import posets, qlinalg

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
    Only the order on down(x) is read, in ascending index order.

    A syzygy is `omega`, {z: Z-basis of its kernel K(z)}, with `fresh`,
    {z: (N, extra, widest)} for the elements z where K(z) is more than the
    kernel of its widest cover: omega[z] is omega[widest] followed by the
    new relations N, and restricted to the columns in `extra`, K(widest)
    vanishes and span N maps injectively.
    """

    def __init__(self, P, x, max_len, above):
        self.P = P
        self.x = x
        self.max_len = max_len
        down_mask = P.down[x]
        self.down = posets.mask_indices(down_mask)
        # the covers of w inside the down-set of x are its covers in P, the
        # bits of above[w] (P.upper_covers(), built once per poset)
        self.covers = {w: posets.mask_indices(above[w] & down_mask) for w in self.down}
        # every cover of z has a larger down-set, so it comes before z
        self.top_down = sorted(self.down, key=lambda z: -P.down[z].bit_count())
        self.multiplicities = []

    def run(self):
        # step 0: P_0 = R_x covering S_x
        x = self.x
        summands = [(x, None)]
        self.multiplicities.append({x: 1})
        # Omega_1(z) = ker(P_0(z) -> S_x(z)): everything below x, nothing at
        # x.  It is new, seen in column 0, at the elements x covers; below
        # any other element it is that element's covers'
        unit = {0: 1}
        omega = {z: [] if z == x else [unit] for z in self.down}
        fresh = {z: ([unit], {0}, x) for z in self.down if x in self.covers[z]}
        degree = 0
        while any(omega.values()):
            degree += 1
            if degree > self.max_len:
                raise OracleError(
                    f"resolution did not terminate within {self.max_len} steps"
                )
            new_summands, mult = self._cover_step(omega, fresh)
            self.multiplicities.append(mult)
            omega, fresh = self._syzygy(len(summands), new_summands, omega)
            summands = new_summands
        return self.multiplicities

    def _cover_step(self, omega, fresh):
        """Lift a basis of the top of omega at each element; the new summands.

        The top at z is K(z) / rad(z), with rad(z) the sum of K(w) over the
        covers w of z.  K(widest) lies in rad(z), so the top is
        (K(widest) + span N) / rad(z), and it is 0 where z is not fresh.
        Restricting to the columns in `extra` kills K(widest) and is
        injective on span N, so it carries that quotient isomorphically onto
        the restrictions of N modulo those of the other covers' kernels.  The
        greedy complement is taken there: each chosen vector of N is
        independent of the radical rows and of the vectors chosen before it,
        so the chosen vectors lift a basis of the top and the cover is
        surjective and minimal by construction.  Where no other cover's
        kernel meets those columns, the top is all of N and no echelon is
        built.
        """
        new_summands = []
        mult = {}
        for z in self.down:
            if z not in fresh:
                continue
            new, extra, widest = fresh[z]
            ech = None
            for w in self.covers[z]:
                if w == widest:
                    continue
                for v in omega[w]:
                    row = {c: a for c, a in v.items() if c in extra}
                    if row:
                        if ech is None:
                            ech = qlinalg.IntEchelon()
                        ech.add(row)
            if ech is None:
                chosen = new
            else:
                chosen = [v for v in new
                          if ech.add({c: a for c, a in v.items() if c in extra})]
            if chosen:
                mult[z] = len(chosen)
                new_summands += [(z, v) for v in chosen]
        return new_summands, mult

    def _syzygy(self, height, summands, prev_omega):
        """Exact kernels of the differential at every element, with audits.

        The columns at z are the summands based at or above z, and those of
        a cover w are among them.  Elements are visited top-down; z copies
        the saved `KernelEchelon` of its widest cover and adds only the
        columns that cover lacks.  That is the kernel echelon of z's columns
        in that order, so K(z) is K(widest) plus the new relations N, each
        with a nonzero coefficient at its own new column and its other
        coefficients on columns added before it.  A saved echelon is never
        extended, only copied.
        """
        up = self.P.up
        by_base = {}
        for t, (y, _v) in enumerate(summands):
            by_base.setdefault(y, []).append(t)
        bases = 0
        for y in by_base:
            bases |= 1 << y
        ncols = {}
        omega = {}
        fresh = {}
        saved = {}
        for z in self.top_down:
            covers = self.covers[z]
            if covers:
                widest = max(covers, key=ncols.__getitem__)
                ech, basis, seen = saved[widest], omega[widest], up[widest] & bases
            else:
                widest, ech, basis, seen = None, qlinalg.KernelEchelon(height), [], 0
            extra = [t for y in posets.mask_indices(up[z] & bases & ~seen) for t in by_base[y]]
            ncols[z] = (ncols[widest] if covers else 0) + len(extra)
            if extra:
                ech = ech.copy()
                new = []
                # a summand's vector is valid unchanged at every element below
                # its base, so it is the summand's column of the differential
                for t in extra:
                    relation = ech.add(summands[t][1], t)
                    if relation is not None:
                        new.append(relation)
                if new:
                    basis = basis + new
                    fresh[z] = (new, set(extra), widest)
                    # minimality audit: kernel coordinates on summands based
                    # at z vanish; none is among the widest cover's columns
                    for t in by_base.get(z, ()):
                        if any(t in relation for relation in new):
                            raise OracleError("cover is not minimal: kernel meets the top")
            saved[z] = ech
            omega[z] = basis
            if not ncols[z] and prev_omega[z]:
                raise OracleError("cover misses an element with nonzero syzygy")
            # exactness audit: the cover step spans the previous syzygy, so
            # dim ker + dim image = dim source
            if len(basis) != ncols[z] - len(prev_omega[z]):
                raise OracleError("exactness audit failed at an element")
        return omega, fresh


def minimal_resolution(P, x, max_len=None):
    """Multiplicity dicts {element: m} per homological degree for S_x.

    max_len defaults to height(P) + 2; exceeding it raises (a functoriality
    or minimality bug would show up as non-termination).
    """
    if max_len is None:
        max_len = P.height() + 2
    if max_len < P.height() + 1:
        raise OracleError("max_len below the height bound cannot certify termination")
    return _Resolution(P, x, max_len, P.upper_covers()).run()


def gldim_oracle(P, max_len=None):
    """max over x of the length of the minimal resolution of S_x: the top
    degree of ext_table_oracle(P)."""
    if P.n == 0:
        raise OracleError("global dimension of the empty poset is undefined")
    return max(n for _x, _y, n in ext_table_oracle(P, max_len))


def _relabelled_order(P, above, x):
    """down(x) in ascending index order, and the order on it relabelled to
    positions in that list, as the positions of each element's covers
    (`above` is `P.upper_covers()`).  The covers of an element of down(x)
    inside it are its covers in P, and they determine the order.  The
    resolution of S_x reads nothing else of P."""
    mask = P.down[x]
    down = posets.mask_indices(mask)
    pos = {z: i for i, z in enumerate(down)}
    return down, tuple(tuple(pos[c] for c in posets.mask_indices(above[z] & mask))
                       for z in down)


def ext_table_oracle(P, max_len=None):
    """All nonzero dim Ext^n(S_x, S_y) as {(x, y, n): dim}, by resolutions.

    Simples whose down-sets carry the same relabelled order share one
    resolution within the call, and every resolution reads the upper covers
    that the poset builds once.
    """
    above = P.upper_covers()
    resolved = {}  # relabelled order on down(x) -> multiplicities by position
    entries = {}
    for x in range(P.n):
        down, key = _relabelled_order(P, above, x)
        mults = resolved.get(key)
        if mults is None:
            pos = {z: i for i, z in enumerate(down)}
            mults = resolved[key] = [
                {pos[y]: m for y, m in level.items()}
                for level in minimal_resolution(P, x, max_len=max_len)
            ]
        for n, level in enumerate(mults):
            for i, m in sorted(level.items()):
                entries[(x, down[i], n)] = m
    return entries
