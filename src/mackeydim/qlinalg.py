"""Exact integer and rational linear algebra.

Everything user-visible here is exact: ranks and kernels are either computed
by fraction-free / rational elimination, or by a certified route where modular
arithmetic only ever proves one-sided bounds (a minor that is nonzero mod p is
a nonzero integer) and integer witnesses verified by exact arithmetic close
the other side.  Floating point appears in exactly one place, the BLAS-backed
integer matrix product, and only when the operand bounds prove the float64
results are exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import numpy as np

__all__ = [
    "QLinalgError",
    "EliminationBudgetExceeded",
    "bareiss_rank",
    "gauss_rank",
    "rank",
    "hnf_columns",
    "smith_normal_form",
    "kernel_basis_int",
    "kernel_basis_certified",
    "gf2_rank",
    "modp_rank",
    "reduced_cohomology_dims",
    "reduced_homology_dims",
    "euler_characteristic_reduced",
]


class QLinalgError(Exception):
    pass


class EliminationBudgetExceeded(QLinalgError):
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


def _rank_int_sparse(sparse_rows, op_budget=None):
    """Exact rank of an integer matrix given as dicts col -> value.

    Integer-preserving elimination (xgcd row combinations), pivoting by
    approximate Markowitz cost with preference for unit pivots.  Rows are
    divided by their content to control growth.
    """
    rows = [dict(r) for r in sparse_rows if r]
    col_count = {}
    for r in rows:
        for c in r:
            col_count[c] = col_count.get(c, 0) + 1
    rank_ = 0
    ops = 0
    while rows:
        best = None
        for idx, r in enumerate(rows):
            rl = len(r)
            for c, v in r.items():
                score = (abs(v) != 1, (rl - 1) * (col_count[c] - 1))
                if best is None or score < best[0]:
                    best = (score, idx, c)
                    if score == (False, 0):
                        break
            if best is not None and best[0] == (False, 0):
                break
        _, pidx, pcol = best
        prow = rows.pop(pidx)
        for c in prow:
            col_count[c] -= 1
        pval = prow[pcol]
        rank_ += 1
        touched = [i for i, r in enumerate(rows) if pcol in r]
        for i in touched:
            r = rows[i]
            v = r[pcol]
            for c in r:
                col_count[c] -= 1
            if v % pval == 0:
                q = v // pval
                for c, pv in prow.items():
                    nv = r.get(c, 0) - q * pv
                    if nv:
                        r[c] = nv
                    elif c in r:
                        del r[c]
            else:
                g, x, y = _xgcd(pval, v)
                # r <- (pval//g) * r - (v//g) * prow  kills the pivot column
                a = pval // g
                b = v // g
                new = {c: a * w for c, w in r.items()}
                for c, pv in prow.items():
                    nv = new.get(c, 0) - b * pv
                    if nv:
                        new[c] = nv
                    elif c in new:
                        del new[c]
                r = new
                rows[i] = r
            if r:
                content = 0
                for w in r.values():
                    content = gcd(content, w)
                    if content == 1:
                        break
                if content > 1:
                    for c in list(r):
                        r[c] //= content
            for c in r:
                col_count[c] = col_count.get(c, 0) + 1
            ops += len(r) + len(prow)
            if op_budget is not None and ops > op_budget:
                raise EliminationBudgetExceeded(f"sparse elimination ops > {op_budget}")
        rows = [r for r in rows if r]
    return rank_


def _to_sparse_rows(rows):
    out = []
    for r in rows:
        d = {j: v for j, v in enumerate(r) if v}
        out.append(d)
    return out


_DENSE_RANK_LIMIT = 120


def rank(rows):
    """Exact rank over Q; Bareiss for small dense, sparse elimination beyond."""
    rows = list(rows)
    if not rows or not rows[0]:
        return 0
    if len(rows) <= _DENSE_RANK_LIMIT and len(rows[0]) <= _DENSE_RANK_LIMIT:
        return bareiss_rank(rows)
    return _rank_int_sparse(_to_sparse_rows(_clear_denominators(rows)))


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


def kernel_basis_int(rows, ncols=None):
    """Integer basis of the right kernel of an integer matrix (dense route).

    Row-reduces the transpose augmented with the identity; augmented parts of
    vanished rows form the kernel basis.  Suitable for small/medium matrices.
    """
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    m = len(rows)
    # aug[i] = (column i of A, e_i)
    aug = [[rows[r][i] for r in range(m)] + [0] * ncols for i in range(ncols)]
    for i in range(ncols):
        aug[i][m + i] = 1
    pivot_cols = []
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, ncols):
            if aug[i][col]:
                if piv is None or abs(aug[i][col]) < abs(aug[piv][col]):
                    piv = i
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(r + 1, ncols):
            while aug[i][col]:
                a, b = aug[r][col], aug[i][col]
                if abs(a) > abs(b):
                    aug[r], aug[i] = aug[i], aug[r]
                    continue
                q = aug[i][col] // aug[r][col]
                if q:
                    for j in range(col, m + ncols):
                        aug[i][j] -= q * aug[r][j]
                else:
                    break
        pivot_cols.append(col)
        r += 1
    kernel = []
    for i in range(r, ncols):
        if any(aug[i][:m]):
            raise QLinalgError("echelon failure")
        vec = aug[i][m:]
        g = 0
        for v in vec:
            g = gcd(g, v)
        if g > 1:
            vec = [v // g for v in vec]
        kernel.append(vec)
    return kernel


def _primes_below(bound, count):
    out = []
    n = bound - 1
    while len(out) < count:
        d = 3
        is_p = n % 2 == 1
        while is_p and d * d <= n:
            if n % d == 0:
                is_p = False
            d += 2
        if is_p:
            out.append(n)
        n -= 2
    return tuple(out)


# primes just below 2^20: entries stay small enough that float64 matrix
# products are exact (p^2 * inner_dim < 2^53), so BLAS does the lifting work
_DIXON_PRIMES = _primes_below(1 << 20, 3)
_DIXON_PRIME = _DIXON_PRIMES[0]


def _imatmul_exact(A, B):
    """Exact integer matmul A @ B (int64 inputs), BLAS when provably exact."""
    inner = A.shape[1]
    if inner == 0:
        return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    amax = int(np.max(np.abs(A)))
    bmax = int(np.max(np.abs(B)))
    if amax and bmax and amax * bmax * inner < (1 << 52):
        C = A.astype(np.float64) @ B.astype(np.float64)
        return np.rint(C).astype(np.int64)
    if amax and bmax and amax * bmax * inner < (1 << 62):
        return A @ B
    return (A.astype(object) @ B.astype(object))


def _modp_rref(A, p):
    """RREF of int64 numpy matrix mod p; returns (pivot_cols, pivot_rows, R).

    R is the reduced matrix; entries stay in [0, p).  int64-safe for p < 2^31.
    """
    A = np.mod(A.astype(np.int64), p)
    n_rows, n_cols = A.shape
    pivot_cols = []
    pivot_rows = []
    r = 0
    row_order = np.arange(n_rows)
    for col in range(n_cols):
        colvals = A[r:, col]
        nz = np.nonzero(colvals)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
            row_order[[r, piv]] = row_order[[piv, r]]
        inv = pow(int(A[r, col]), p - 2, p)
        A[r] = (A[r] * inv) % p
        rest = np.nonzero(A[:, col])[0]
        rest = rest[rest != r]
        if rest.size:
            A[rest] = (A[rest] - np.outer(A[rest, col], A[r])) % p
        pivot_cols.append(col)
        pivot_rows.append(int(row_order[r]))
        r += 1
        if r == n_rows:
            break
    return pivot_cols, pivot_rows, A


def modp_rank(rows, p=_DIXON_PRIME):
    """Rank mod p.  This is an exact LOWER bound for the rank over Q."""
    A = np.array([list(r) for r in rows], dtype=object)
    A = np.mod(A, p).astype(np.int64)
    if A.size == 0:
        return 0
    pivot_cols, _, _ = _modp_rref(A, p)
    return len(pivot_cols)


def _rational_reconstruct(a, m):
    """Reconstruct n/d = a (mod m) with |n|, d <= sqrt(m/2); None if impossible."""
    bound = isqrt(m // 2)
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > bound:
        return None
    if gcd(r1, abs(s1)) != 1 and r1 != 0:
        return None
    return Fraction(r1, s1)


def kernel_basis_certified(rows, ncols=None, max_digits=400):
    """Exact, certified integer kernel basis of an integer matrix.

    Route: mod-p RREF locates pivot/free columns and proves rank_Q >= r
    (a nonzero r x r minor mod p is a nonzero integer).  Free columns are
    solved against the pivot columns by Dixon p-adic lifting with rational
    reconstruction; each candidate is then verified exactly over Z.  Verified
    vectors carry an identity block on the free columns, so they are
    independent; with rank_Q >= r they are a complete kernel basis.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if m else 0
    if m == 0 or ncols == 0:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    if ncols <= 200 and m <= 600:
        return kernel_basis_int(rows, ncols)
    err = None
    for p in _DIXON_PRIMES:
        try:
            return _kernel_basis_dixon(rows, ncols, p, max_digits)
        except QLinalgError as exc:
            err = exc
    raise QLinalgError(f"certified kernel failed for all primes: {err}")


def _kernel_basis_dixon(rows, ncols, p, max_digits):
    A = np.array(rows, dtype=object)
    maxabs = int(np.max(np.abs(A))) if A.size else 0
    if maxabs == 0:
        return [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    if maxabs >= 2**52:
        raise QLinalgError("entries too large for the certified kernel route")
    A64 = A.astype(np.int64)
    pivot_cols, pivot_rows, _ = _modp_rref(A64.copy(), p)
    r = len(pivot_cols)
    free_cols = [j for j in range(ncols) if j not in set(pivot_cols)]
    if not free_cols:
        return []
    M = A64[np.ix_(pivot_rows, pivot_cols)]  # r x r, invertible mod p
    B = -A64[np.ix_(pivot_rows, free_cols)]  # r x f
    aug = np.concatenate([M % p, np.eye(r, dtype=np.int64)], axis=1)
    pc, _, R = _modp_rref(aug, p)
    if pc != list(range(r)):
        raise QLinalgError("pivot block unexpectedly singular mod p")
    Minv = R[:, r:]
    # Dixon lifting with symmetric digits in [-p/2, p/2): the balanced
    # p-adic expansion of an integer terminates regardless of sign, so small
    # integer kernels finish in a couple of digits; rationals fall back to
    # reconstruction at checkpoints.
    f = len(free_cols)
    half = p // 2
    digits = []
    resid = B.copy()
    object_mode = False

    def assemble(rationals):
        nd = len(digits)
        X = digits[nd - 1].astype(object)
        for k in range(nd - 2, -1, -1):
            X = X * p + digits[k]
        modulus = p**nd
        basis = []
        for j in range(f):
            vec = [0] * ncols
            vec[free_cols[j]] = 1
            if rationals:
                fracs = {}
                for i in range(r):
                    q = _rational_reconstruct(int(X[i, j]) % modulus, modulus)
                    if q is None:
                        return None
                    fracs[pivot_cols[i]] = q
                den = 1
                for v in fracs.values():
                    den = den * v.denominator // gcd(den, v.denominator)
                vec = [v * den for v in vec]
                for c, q in fracs.items():
                    vec[c] = int(q * den)
            else:
                for i in range(r):
                    vec[pivot_cols[i]] = int(X[i, j])
            g = 0
            for v in vec:
                g = gcd(g, v)
                if g == 1:
                    break
            if g > 1:
                vec = [v // g for v in vec]
            basis.append(vec)
        return basis

    checkpoints = set()
    c = 16
    while c < max_digits:
        checkpoints.add(c)
        c *= 2
    checkpoints.add(max_digits)
    for step in range(1, max_digits + 1):
        if object_mode:
            resid_mod = np.mod(resid, p).astype(np.int64)
        else:
            resid_mod = np.mod(resid, p)
        xk = _imatmul_exact(Minv, resid_mod) % p
        xk = np.where(xk > half, xk - p, xk)
        digits.append(xk)
        prod = _imatmul_exact(M, xk)
        if prod.dtype == object or object_mode:
            resid = resid.astype(object) - prod.astype(object)
            object_mode = True
        else:
            resid = resid - prod
        if np.any(resid % p):
            raise QLinalgError("p-adic lifting inconsistency")
        resid //= p
        if not np.any(resid):
            basis = assemble(rationals=False)
            if basis is not None:
                _verify_kernel(rows, basis)
                return basis
        if step in checkpoints:
            basis = assemble(rationals=True)
            if basis is not None:
                try:
                    _verify_kernel(rows, basis)
                    return basis
                except QLinalgError:
                    pass
    raise QLinalgError("p-adic lifting did not converge; raise max_digits")


def _verify_kernel(rows, basis):
    """Exact check A . v = 0 for every candidate kernel vector."""
    if not basis:
        return
    amax = max((abs(e) for r in rows for e in r), default=0)
    vmax = max((abs(e) for v in basis for e in v), default=0)
    if amax < 2**52 and vmax < 2**52:
        A = np.array(rows, dtype=np.int64)
        V = np.array(basis, dtype=np.int64).T
        if np.any(_imatmul_exact(A, V)):
            raise QLinalgError("kernel verification failed")
        return
    sparse = _to_sparse_rows(rows)
    for vec in basis:
        for d in sparse:
            s = 0
            for c, a in d.items():
                s += a * vec[c]
            if s != 0:
                raise QLinalgError("kernel verification failed")


# ---------------------------------------------------------------------------
# GF(2) bitset elimination
# ---------------------------------------------------------------------------


def gf2_rank(bitrows):
    """Rank over F_2 of rows given as Python ints (bit j = column j)."""
    basis = {}
    r = 0
    for row in bitrows:
        while row:
            lead = row.bit_length() - 1
            b = basis.get(lead)
            if b is None:
                basis[lead] = row
                r += 1
                break
            row ^= b
    return r


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


def _coboundary_rows(simplices_by_dim, d):
    """Dense coboundary matrix C^d -> C^{d+1} (rows: (d+1)-simplices).

    Standard alternating-sign face incidence; simplices are taken in the
    (lexicographic) order they are stored in.
    """
    n_d = len(simplices_by_dim[d])
    if d + 1 >= len(simplices_by_dim):
        return []
    face_index = {s: i for i, s in enumerate(simplices_by_dim[d])}
    rows = []
    for tau in simplices_by_dim[d + 1]:
        row = [0] * n_d
        sign = 1
        for i in range(len(tau)):
            face = tau[:i] + tau[i + 1 :]
            row[face_index[face]] = sign
            sign = -sign
        rows.append(row)
    return rows


def _cohomology_exact(simplices_by_dim):
    """Reduced cohomology dims from coboundary ranks, exact elimination."""
    dims = len(simplices_by_dim)
    counts = [len(simplices_by_dim[d]) for d in range(dims)]
    # rank of d^{-1}: C^{-1}=Q -> C^0 is 1 whenever the complex is non-empty
    ranks = {-1: 1 if counts and counts[0] else 0}
    for d in range(dims):
        rows = _coboundary_rows(simplices_by_dim, d)
        if not rows:
            ranks[d] = 0
            continue
        big = len(rows) > _DENSE_RANK_LIMIT or counts[d] > _DENSE_RANK_LIMIT
        if big:
            ranks[d] = _rank_int_sparse(_to_sparse_rows(rows))
        else:
            ranks[d] = bareiss_rank(rows)
    out = {}
    for d in range(dims):
        betti = counts[d] - ranks[d] - ranks[d - 1]
        if betti:
            out[d] = betti
    return out


def _gf2_betti(simplices_by_dim):
    """Mod-2 boundary ranks and Betti numbers; also returns row data."""
    boundaries = _complex_data(simplices_by_dim)
    dims = len(simplices_by_dim)
    counts = [len(simplices_by_dim[d]) for d in range(dims)]
    ranks = [0] * (dims + 1)
    for d in range(dims):
        ncols_prev = counts[d - 1] if d > 0 else 1
        rows = [0] * ncols_prev
        for k, col in enumerate(boundaries[d]):
            for (r, _s) in col:
                rows[r] |= 1 << k
        ranks[d] = gf2_rank(rows)
    betti = [counts[d] - ranks[d] - ranks[d + 1] for d in range(dims)]
    return ranks, betti, boundaries


def _boundary_apply(boundary_cols, vec):
    """Exact boundary of an integer chain given as {cell_index: coeff}."""
    out = {}
    for k, coeff in vec.items():
        for (r, s) in boundary_cols[k]:
            out[r] = out.get(r, 0) + s * coeff
    return {r: v for r, v in out.items() if v}


def _cohomology_certified(simplices_by_dim, cycle_candidates):
    """Certified reduced cohomology via mod-2 ranks + exact integer cycles.

    Soundness: rank_Q >= rank_{F_2} for integer matrices, and the supplied
    verified integer cycles extend the boundary image independently mod 2,
    hence over Q.  If for every degree d
        n_d = r_2(bd_d) + r_2(bd_{d+1}) + c_d
    then all inequalities collapse and Betti_Q(d) = c_d exactly.
    Returns None when the certificate does not close.
    """
    dims = len(simplices_by_dim)
    counts = [len(simplices_by_dim[d]) for d in range(dims)]
    ranks, betti2, boundaries = _gf2_betti(simplices_by_dim)
    candidates = {d: list(vs) for d, vs in (cycle_candidates or {}).items()}
    explained = {}
    for d in range(dims):
        need = betti2[d]
        if need == 0:
            explained[d] = 0
            continue
        vecs = candidates.get(d, [])
        # verify each candidate is an exact integer cycle
        verified = []
        for vec in vecs:
            if not vec:
                continue
            if _boundary_apply(boundaries[d], vec):
                raise QLinalgError("candidate cycle has nonzero boundary")
            verified.append(vec)
        if len(verified) < need:
            return None
        # count how many verified cycles are independent of the boundary
        # image mod 2
        ncols_d = counts[d]
        rows = [0] * (counts[d + 1] if d + 1 < dims else 0)
        basis = {}
        if d + 1 < dims:
            for k, col in enumerate(boundaries[d + 1]):
                mask = 0
                for (r, _s) in col:
                    mask |= 1 << r
                row = mask
                while row:
                    lead = row.bit_length() - 1
                    b = basis.get(lead)
                    if b is None:
                        basis[lead] = row
                        break
                    row ^= b
        new = 0
        for vec in verified:
            mask = 0
            for c, v in vec.items():
                if v % 2:
                    mask |= 1 << c
            row = mask
            while row:
                lead = row.bit_length() - 1
                b = basis.get(lead)
                if b is None:
                    basis[lead] = row
                    new += 1
                    break
                row ^= b
            if new == need:
                break
        if new < need:
            return None
        explained[d] = need
    out = {}
    for d in range(dims):
        if betti2[d]:
            out[d] = betti2[d]
    return out


_EXACT_COMPLEX_LIMIT = 4000


def reduced_cohomology_dims(complex_or_simplices, cycle_candidates=None, force=None):
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
    total = sum(len(level) for level in simp)
    if force == "exact" or (force is None and total <= _EXACT_COMPLEX_LIMIT):
        return _cohomology_exact(simp)
    res = _cohomology_certified(simp, cycle_candidates)
    if res is not None:
        return res
    if force == "certified":
        raise QLinalgError("certificate did not close and exact path was forbidden")
    return _cohomology_exact(simp)


def reduced_homology_dims(complex_or_simplices):
    """Reduced homology dims via boundary-map ranks (test cross-check path)."""
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
        ranks[d] = rank(dense) if dense and dense[0] else 0
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
