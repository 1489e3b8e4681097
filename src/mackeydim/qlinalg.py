"""Exact integer and rational linear algebra.

Every rank and kernel is exact integer elimination, and all of them go
through one engine, the sparse unimodular row echelon `IntEchelon`.  Bareiss
and plain rational elimination stay as the independent references that
tests compare it against.  No floating point and no modular arithmetic is
involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = [
    "QLinalgError",
    "IntEchelon",
    "bareiss_rank",
    "gauss_rank",
    "rank",
    "hnf_columns",
    "smith_normal_form",
    "kernel_basis_sparse",
    "kernel_basis_int",
    "reduced_cohomology_dims",
    "reduced_homology_dims",
    "euler_characteristic_reduced",
]


class QLinalgError(Exception):
    pass


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _clear_denominators(rows):
    """Scale each row by the lcm of denominators; rank and kernel unchanged."""
    out = []
    for r in rows:
        den = 1
        for e in r:
            if isinstance(e, Fraction):
                den = den * e.denominator // gcd(den, e.denominator)
        if den == 1:
            out.append([int(e) for e in r])
        else:
            out.append([int(e * den) for e in r])
    return out


def bareiss_rank(rows):
    """Rank over Q by Bareiss fraction-free elimination.

    Pivots are chosen within the current column block by smallest bit length
    of numerator*denominator (rows are integer-cleared first, so this is just
    the entry's bit length).
    """
    m = _clear_denominators(rows)
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    prev = 1
    r = 0
    for col in range(n_cols):
        piv, best = -1, None
        for i in range(r, n_rows):
            v = m[i][col]
            if v:
                b = abs(v).bit_length()
                if best is None or b < best:
                    piv, best = i, b
        if piv < 0:
            continue
        if piv != r:
            m[piv], m[r] = m[r], m[piv]
        pr = m[r]
        pv = pr[col]
        for i in range(r + 1, n_rows):
            ri = m[i]
            f = ri[col]
            if f:
                for j in range(col, n_cols):
                    ri[j] = (pv * ri[j] - f * pr[j]) // prev
            elif prev != 1 or pv != 1:
                for j in range(col, n_cols):
                    ri[j] = (pv * ri[j]) // prev
        prev = pv
        r += 1
        if r == n_rows:
            break
    return r


def gauss_rank(rows):
    """Rank over Q by plain rational elimination (cross-check for Bareiss)."""
    m = [[Fraction(e) for e in r] for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][col]), -1)
        if piv < 0:
            continue
        m[piv], m[r] = m[r], m[piv]
        pr = m[r]
        inv = 1 / pr[col]
        for i in range(r + 1, n_rows):
            f = m[i][col]
            if f:
                f *= inv
                ri = m[i]
                for j in range(col, n_cols):
                    ri[j] -= f * pr[j]
        r += 1
        if r == n_rows:
            break
    return r


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


def _axpy(row, q, other):
    """row += q * other, in place, dropping zero entries."""
    for c, w in other.items():
        nv = row.get(c, 0) + q * w
        if nv:
            row[c] = nv
        else:
            del row[c]


def rank(rows):
    """Exact rank over Q of a dense matrix with integer or Fraction entries."""
    ech = IntEchelon()
    for r in _clear_denominators(rows):
        ech.add({j: v for j, v in enumerate(r) if v})
    return ech.rank()


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms (small matrices: subgroup bases, quotients)
# ---------------------------------------------------------------------------


def hnf_columns(columns, dim):
    """Canonical column Hermite normal form of the lattice spanned by `columns`.

    Returns a list of pivot columns (each of length `dim`), lower triangular
    in the sense that column j has its pivot at row j when the lattice has
    full rank; entries to the left of a pivot are reduced into [0, pivot).
    Zero columns are dropped, so a full-rank lattice yields dim columns.
    """
    work = [list(c) for c in columns]
    ncols = len(work)
    pivots = []
    col_of_row = {}
    for row in range(dim):
        # sweep: combine all non-pivot columns with a nonzero entry in this row
        live = [c for c in range(ncols) if work[c][row] and c not in pivots]
        if not live:
            continue
        c0 = live[0]
        for c in live[1:]:
            a, b = work[c0][row], work[c][row]
            g, x, y = _xgcd(a, b)
            u, v = a // g, b // g
            colA, colB = work[c0], work[c]
            for i in range(row, dim):
                na = x * colA[i] + y * colB[i]
                nb = -v * colA[i] + u * colB[i]
                colA[i], colB[i] = na, nb
        if work[c0][row] < 0:
            for i in range(row, dim):
                work[c0][i] = -work[c0][i]
        pivots.append(c0)
        col_of_row[row] = c0
    # reduce entries left of each pivot
    basis = [work[c] for c in pivots]
    pivot_row = {}
    for j, col in enumerate(basis):
        r = next(i for i in range(dim) if col[i])
        pivot_row[j] = r
    # basis columns are ordered by pivot row already (rows scanned in order)
    for j in range(len(basis)):
        r = pivot_row[j]
        p = basis[j][r]
        for jj in range(j):
            v = basis[jj][r]
            q = v // p
            if q:
                for i in range(r, dim):
                    basis[jj][i] -= q * basis[j][i]
    return [list(c) for c in basis]


def smith_normal_form(rows):
    """Smith normal form diagonal of an integer matrix.

    Returns the full diagonal (length min(m, n)) with the divisibility chain
    d_1 | d_2 | ..., entries non-negative.  Transforms are not returned.
    """
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    diag = []
    top = 0
    left = 0
    while top < n_rows and left < n_cols:
        # find smallest nonzero entry in the remaining block
        piv = None
        for i in range(top, n_rows):
            for j in range(left, n_cols):
                v = m[i][j]
                if v and (piv is None or abs(v) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[left], row[pj] = row[pj], row[left]
        while True:
            # clear column
            again = False
            for i in range(top + 1, n_rows):
                v = m[i][left]
                if v:
                    q = v // m[top][left]
                    for j in range(left, n_cols):
                        m[i][j] -= q * m[top][j]
                    if m[i][left]:
                        m[top], m[i] = m[i], m[top]
                        again = True
            if again:
                continue
            # clear row
            for j in range(left + 1, n_cols):
                v = m[top][j]
                if v:
                    q = v // m[top][left]
                    for i in range(top, n_rows):
                        m[i][j] -= q * m[i][left]
                    if m[top][j]:
                        for row in m:
                            row[left], row[j] = row[j], row[left]
                        again = True
            if not again:
                break
        diag.append(abs(m[top][left]))
        top += 1
        left += 1
    diag += [0] * (min(n_rows, n_cols) - len(diag))
    # enforce divisibility chain
    k = len(diag)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = diag[i], diag[j]
            if a == 0 and b != 0:
                diag[i], diag[j] = b, 0
                a, b = diag[i], diag[j]
            if a and b and b % a:
                g = gcd(a, b)
                l = a // g * b
                diag[i], diag[j] = g, l
    return diag


# ---------------------------------------------------------------------------
# Integer kernels
# ---------------------------------------------------------------------------


def kernel_basis_sparse(columns, height):
    """Z-basis of the integer relations among sparse columns {row: value}.

    Each column is echelonned together with its unit vector, tagged at
    position height + j past every row index.  A column whose row part
    vanishes leaves its tag part as a relation, and because every step is
    unimodular those relations are a Z-basis of the kernel, not merely a
    Q-basis.  Relations are returned as {column index: coefficient}.
    """
    ech = IntEchelon()
    kernel = []
    for j, col in enumerate(columns):
        row = dict(col)
        row[height + j] = 1
        lead = ech.reduce(row)
        if lead < height:
            ech._keep(lead, row)
        else:
            kernel.append({c - height: v for c, v in row.items()})
    return kernel


def kernel_basis_int(rows, ncols=None):
    """Z-basis of the right kernel of a dense integer matrix, as dense rows."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    columns = [{i: r[j] for i, r in enumerate(rows) if r[j]} for j in range(ncols)]
    return [
        [vec.get(j, 0) for j in range(ncols)]
        for vec in kernel_basis_sparse(columns, len(rows))
    ]


# ---------------------------------------------------------------------------
# Simplicial (co)homology over Q
# ---------------------------------------------------------------------------


def _boundary_sparse(simplices_by_dim, d, index_maps):
    """Boundary matrix d-chains -> (d-1)-chains as sparse columns.

    Column k lists (row, sign) for the faces of the k-th d-simplex.  For
    d = 0 the target is the augmentation line and every vertex maps to +1.
    """
    cols = []
    if d == 0:
        for _ in simplices_by_dim[0]:
            cols.append(((0, 1),))
        return cols
    face_index = index_maps[d - 1]
    for simplex in simplices_by_dim[d]:
        col = []
        sign = 1
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            col.append((face_index[face], sign))
            sign = -sign
        cols.append(tuple(col))
    return cols


def _complex_data(simplices_by_dim):
    dims = len(simplices_by_dim)
    index_maps = [
        {s: i for i, s in enumerate(simplices_by_dim[d])} for d in range(dims)
    ]
    boundaries = [
        _boundary_sparse(simplices_by_dim, d, index_maps) for d in range(dims)
    ]
    return boundaries


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


def reduced_homology_dims(complex_or_simplices):
    """Reduced homology dims via boundary-map ranks (test cross-check path).

    The dense boundaries are ranked by Bareiss elimination, so this stays an
    elimination independent of the `IntEchelon` behind the cohomology.
    """
    simp = getattr(complex_or_simplices, "simplices_by_dim", complex_or_simplices)
    simp = [list(level) for level in simp]
    while simp and not simp[-1]:
        simp.pop()
    if not simp:
        return {-1: 1}
    boundaries = _complex_data(simp)
    dims = len(simp)
    counts = [len(simp[d]) for d in range(dims)]
    ranks = [0] * (dims + 1)
    for d in range(dims):
        nrows = counts[d - 1] if d > 0 else 1
        dense = [[0] * len(boundaries[d]) for _ in range(nrows)]
        for k, col in enumerate(boundaries[d]):
            for (r, s) in col:
                dense[r][k] = s
        ranks[d] = bareiss_rank(dense)
    out = {}
    for d in range(dims):
        betti = counts[d] - ranks[d] - ranks[d + 1]
        if betti:
            out[d] = betti
    return out


def euler_characteristic_reduced(complex_or_simplices):
    simp = getattr(complex_or_simplices, "simplices_by_dim", complex_or_simplices)
    chi = -1
    for d, level in enumerate(simp):
        chi += (-1) ** d * len(level)
    return chi
