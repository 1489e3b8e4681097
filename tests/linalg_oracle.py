"""Brute-force references for the exact linear algebra of `qlinalg`.

- bareiss_rank (fraction-free) and gauss_rank (rational) are dense
  eliminations independent of `qlinalg.IntEchelon`; echelon_rank feeds a
  dense matrix to the echelon, so the three can be compared.
- hnf_columns and smith_normal_form are the Hermite and Smith normal forms
  behind the HNF subgroup bases and the Smith-form section types of
  `group_oracle`.
- kernel_basis_sparse is `qlinalg.KernelEchelon` fed a whole column list
  in one go, and kernel_basis_int is it on a dense matrix.
- reduced_homology_dims ranks the boundary maps by Bareiss elimination, the
  reference for the coboundary route of `qlinalg.reduced_cohomology_dims`.
"""

from fractions import Fraction
from math import gcd

from mackeydim.qlinalg import IntEchelon, KernelEchelon, _xgcd


def clear_denominators(rows):
    """Scale each row by the lcm of denominators; rank and kernel unchanged."""
    out = []
    for r in rows:
        den = 1
        for e in r:
            if isinstance(e, Fraction):
                den = den * e.denominator // gcd(den, e.denominator)
        out.append([int(e * den) for e in r])
    return out


def bareiss_rank(rows):
    """Rank over Q by Bareiss fraction-free elimination.

    Pivots are chosen within the current column block by smallest bit length
    (rows are integer-cleared first).
    """
    m = clear_denominators(rows)
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


def echelon_rank(rows):
    """Exact rank over Q of a dense matrix through `IntEchelon`."""
    ech = IntEchelon()
    for r in clear_denominators(rows):
        ech.add({j: v for j, v in enumerate(r) if v})
    return ech.rank()


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
    # basis columns are ordered by pivot row already (rows scanned in order);
    # reduce the entries left of each pivot
    basis = [work[c] for c in pivots]
    for j, col in enumerate(basis):
        r = next(i for i in range(dim) if col[i])
        p = col[r]
        for jj in range(j):
            q = basis[jj][r] // p
            if q:
                for i in range(r, dim):
                    basis[jj][i] -= q * col[i]
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
                diag[i], diag[j] = g, a // g * b
    return diag


def kernel_basis_sparse(columns, height):
    """Z-basis of the integer relations among sparse columns {row: value}
    with row indices below height, as {column index: coefficient}."""
    ech = KernelEchelon(height)
    kernel = []
    for j, col in enumerate(columns):
        relation = ech.add(col, j)
        if relation is not None:
            kernel.append(relation)
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


def boundary_matrix(simplices_by_dim, d):
    """Dense boundary matrix of d-chains -> (d-1)-chains, alternating signs.

    For d = 0 the target is the augmentation line and every vertex maps to +1.
    """
    level = simplices_by_dim[d]
    if d == 0:
        return [[1] * len(level)]
    face_index = {s: i for i, s in enumerate(simplices_by_dim[d - 1])}
    dense = [[0] * len(level) for _ in face_index]
    for k, simplex in enumerate(level):
        sign = 1
        for i in range(len(simplex)):
            dense[face_index[simplex[:i] + simplex[i + 1 :]]][k] = sign
            sign = -sign
    return dense


def reduced_homology_dims(complex_or_simplices):
    """Reduced homology dims over Q via boundary-map ranks.

    The dense boundaries are ranked by Bareiss elimination, so this stays an
    elimination independent of the `IntEchelon` behind the cohomology.
    """
    simp = getattr(complex_or_simplices, "simplices_by_dim", complex_or_simplices)
    simp = [list(level) for level in simp]
    while simp and not simp[-1]:
        simp.pop()
    if not simp:
        return {-1: 1}
    ranks = [bareiss_rank(boundary_matrix(simp, d)) for d in range(len(simp))] + [0]
    out = {}
    for d, level in enumerate(simp):
        betti = len(level) - ranks[d] - ranks[d + 1]
        if betti:
            out[d] = betti
    return out
