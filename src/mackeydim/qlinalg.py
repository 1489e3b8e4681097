"""Exact integer linear algebra: one elimination engine.

Every rank and kernel is exact integer elimination, and all of them go
through one engine, the sparse unimodular row echelon `IntEchelon`;
`KernelEchelon` runs it on columns, one at a time and resumably, for
integer kernels.  No floating point and no modular arithmetic is involved
anywhere.  The dense Bareiss and rational references, the Hermite and Smith
normal forms, Bareiss homology and the one-shot `kernel_basis_sparse`,
which tests compare the engine against, live in tests/linalg_oracle.py.
"""

from __future__ import annotations

__all__ = [
    "IntEchelon",
    "KernelEchelon",
    "reduced_cohomology_dims",
    "euler_characteristic_reduced",
]


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


class IntEchelon:
    """Incremental integer row echelon of sparse rows {col: value}.

    Pivot rows are keyed by their leading (smallest) column.  A row is
    reduced against the pivot of its leading column by exact division when
    the pivot divides the entry, and otherwise by an xgcd pair step that
    replaces the pivot by the gcd combination.  Every step is unimodular, so
    the pivots together with the rows reduced to zero span the same
    Z-lattice as the rows added.  Pivots are size-reduced before each use,
    which keeps entries small on dense input.  A pivot whose entries are all
    +-1 is never size-reduced: `_size_reduce` only acts on larger entries,
    so skipping it changes nothing.  Every pivot is stored through `_keep`,
    which records whether it holds such an entry.
    """

    def __init__(self):
        self.rows = {}
        self._big = set()  # leads of pivots holding an entry beyond +-1

    def reduce(self, row):
        """Reduce `row` in place; return its leading column, None if zero.

        On return no pivot sits at the leading column of `row`.
        """
        while row:
            lead = min(row)
            piv = self.rows.get(lead)
            if piv is None:
                return lead
            if lead in self._big:
                self._size_reduce(piv, lead)
            a, b = piv[lead], row[lead]
            if b % a == 0:
                _axpy(row, -(b // a), piv)
            else:
                g, u, v = _xgcd(a, b)
                new_piv = {c: u * w for c, w in piv.items()} if u else {}
                _axpy(new_piv, v, row)
                for c in row:
                    row[c] *= a // g
                _axpy(row, -(b // g), piv)
                self._keep(lead, new_piv)
        return None

    def _keep(self, lead, row):
        """Store `row` as the pivot at `lead`, noting entries beyond +-1."""
        self.rows[lead] = row
        if max(row.values()) > 1 or min(row.values()) < -1:
            self._big.add(lead)
        else:
            self._big.discard(lead)

    def _size_reduce(self, piv, lead):
        """Size-reduce `piv` at the pivot columns past `lead`, in place.

        An entry larger than the leading entry of its column's pivot is
        brought within it by the nearest multiple of that pivot.  Without
        this, entries on dense inputs double in bit length with every pivot
        a row passes.  Each step reduces the smallest such column and
        changes only larger ones, so the loop ends.
        """
        rows = self.rows
        while True:
            # a leading entry is nonzero, so entries of +-1 never qualify
            big = [
                c for c, x in piv.items()
                if (x > 1 or x < -1) and c > lead and c in rows
                and abs(x) > abs(rows[c][c])
            ]
            if not big:
                return
            lead = min(big)
            a = rows[lead][lead]
            _axpy(piv, -((2 * piv[lead] + a) // (2 * a)), rows[lead])

    def add(self, row):
        """Reduce `row` in place and keep it as a pivot; False if it vanished."""
        lead = self.reduce(row)
        if lead is None:
            return False
        self._keep(lead, row)
        return True

    def rank(self):
        return len(self.rows)

    def copy(self):
        """An independent echelon with the same pivots.

        Pivots are copied too: `reduce` size-reduces and replaces them in
        place, so a shared pivot would change the echelon it was copied from.
        """
        new = IntEchelon()
        new.rows = {lead: dict(row) for lead, row in self.rows.items()}
        new._big = set(self._big)
        return new


def _axpy(row, q, other):
    """row += q * other, in place, dropping zero entries."""
    for c, w in other.items():
        nv = row.get(c, 0) + q * w
        if nv:
            row[c] = nv
        else:
            del row[c]


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------


class KernelEchelon:
    """Z-basis of the integer relations among sparse columns {row: value},
    found one column at a time.

    Each column is echelonned together with a unit vector at its tag, placed
    at position height + tag past every row index (tags are distinct
    non-negative integers).  A column whose row part vanishes leaves its tag
    part as a relation, and because every step is unimodular the relations
    found so far are a Z-basis of the kernel of the columns added so far,
    not merely a Q-basis.  Only pivots with a row-part lead are kept, so a
    tag never leads a pivot and the order of the tags does not matter.

    `copy` saves the state: adding the remaining columns to a copy gives the
    relations of the concatenated column list, and the original is unchanged.
    """

    __slots__ = ("height", "_ech")

    def __init__(self, height):
        self.height = height
        self._ech = IntEchelon()

    def add(self, column, tag):
        """Add `column` under `tag`; its new relation {tag: coeff}, or None.

        A relation has a nonzero coefficient at `tag` itself, and its other
        tags are those of columns added before.
        """
        height = self.height
        row = dict(column)
        row[height + tag] = 1
        lead = self._ech.reduce(row)
        if lead < height:
            self._ech._keep(lead, row)
            return None
        return {c - height: v for c, v in row.items()}

    def copy(self):
        new = KernelEchelon(self.height)
        new._ech = self._ech.copy()
        return new


# ---------------------------------------------------------------------------
# Simplicial (co)homology over Q
# ---------------------------------------------------------------------------


def _coboundary_row(tau, face_index):
    """Coboundary row {face: sign} of the simplex `tau`, alternating signs."""
    row = {}
    sign = 1
    for i in range(len(tau)):
        row[face_index[tau[:i] + tau[i + 1 :]]] = sign
        sign = -sign
    return row


def _coboundary_ranks(simplices_by_dim):
    """Exact ranks {d: rank of delta^d}, d = -1 to the top, of a non-empty complex.

    The ranks are taken from the top degree down, and the rank of the
    coboundary delta^d skips the row of every (d+1)-simplex that leads a pivot
    of the echelon of delta^{d+1}; those rows are never built (Chen-Kerber,
    "Persistent homology computation with a twist", 2011).  The rank over Q
    is unchanged.  A pivot row with lead i is an integer combination of rows
    of delta^{d+1}, that is, a boundary c = a*s_i + sum_{k>i} c_k s_k of
    (d+1)-simplices with a != 0, so its boundary vanishes and the boundary of
    s_i lies in the Q-span of the boundaries of the s_k with k > i.  By
    induction downward from the largest index, the row of every skipped s_i
    lies in the span of the rows kept.
    """
    top = len(simplices_by_dim) - 1
    # delta^{-1}: Q -> C^0 has rank 1 on a non-empty complex
    ranks = {-1: 1, top: 0}
    cleared = {}
    for d in range(top - 1, -1, -1):
        face_index = {s: i for i, s in enumerate(simplices_by_dim[d])}
        ech = IntEchelon()
        for k, tau in enumerate(simplices_by_dim[d + 1]):
            if k not in cleared:
                ech.add(_coboundary_row(tau, face_index))
        ranks[d] = ech.rank()
        cleared = ech.rows
    return ranks


def reduced_cohomology_dims(complex_or_simplices):
    """Dimensions of reduced simplicial cohomology over Q, by degree.

    The empty complex returns {-1: 1} (the convention that makes the
    incidence-algebra Ext formula uniform).  Degrees with dimension 0 are
    omitted.  Accepts an OrderComplex or a raw simplices_by_dim list.
    """
    simp = getattr(complex_or_simplices, "simplices_by_dim", complex_or_simplices)
    simp = [list(level) for level in simp]
    while simp and not simp[-1]:
        simp.pop()
    if not simp:
        return {-1: 1}
    ranks = _coboundary_ranks(simp)
    out = {}
    for d, level in enumerate(simp):
        betti = len(level) - ranks[d] - ranks[d - 1]
        if betti:
            out[d] = betti
    return out


def euler_characteristic_reduced(complex_or_simplices):
    simp = getattr(complex_or_simplices, "simplices_by_dim", complex_or_simplices)
    chi = -1
    for d, level in enumerate(simp):
        chi += (-1) ** d * len(level)
    return chi
