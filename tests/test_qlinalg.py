import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mackeydim import izext, posets, qlinalg
from mackeydim.qlinalg import euler_characteristic_reduced, reduced_cohomology_dims

from conftest import random_poset
from linalg_oracle import (
    bareiss_rank,
    echelon_rank,
    gauss_rank,
    hnf_columns,
    kernel_basis_int,
    kernel_basis_sparse,
    reduced_homology_dims,
    smith_normal_form,
)
from poset_oracle import open_interval


small_int = st.integers(min_value=-9, max_value=9)


def matrix_strategy(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )


class TestRank:
    def test_zero_matrix(self):
        assert echelon_rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_identity(self):
        assert echelon_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert echelon_rank([[1, 2], [2, 4]]) == 1

    def test_fraction_entries(self):
        assert echelon_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
        assert echelon_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]) == 2

    @given(matrix_strategy())
    @settings(max_examples=150, deadline=None)
    def test_elimination_methods_agree(self, rows):
        assert bareiss_rank(rows) == gauss_rank(rows)

    @given(matrix_strategy())
    @settings(max_examples=150, deadline=None)
    def test_echelon_agrees_with_references(self, rows):
        assert echelon_rank(rows) == bareiss_rank(rows) == gauss_rank(rows)


class TestSNF:
    def test_diag_4_6(self):
        assert [d for d in smith_normal_form([[4, 0], [0, 6]])] == [2, 12]

    def test_identity(self):
        assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]

    def test_relations_of_c6(self):
        diag = smith_normal_form([[2, 0], [0, 3]])
        assert diag == [1, 6]
        assert [d for d in diag if d > 1] == [6]

    @given(matrix_strategy(5))
    @settings(max_examples=150, deadline=None)
    def test_divisibility_chain(self, rows):
        diag = smith_normal_form(rows)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0

    @given(matrix_strategy(5))
    @settings(max_examples=100, deadline=None)
    def test_nonzero_count_is_rank(self, rows):
        diag = smith_normal_form(rows)
        assert sum(1 for d in diag if d) == bareiss_rank(rows)


class TestHNF:
    def test_canonical_for_full_lattice(self):
        cols = hnf_columns([[1, 0], [0, 1], [2, 3]], 2)
        assert cols == [[1, 0], [0, 1]]

    def test_reduction_below_pivot(self):
        # lattice spanned by (1,5) and (0,2): entry left of pivot reduced mod 2
        cols = hnf_columns([[1, 5], [0, 2]], 2)
        assert cols == [[1, 1], [0, 2]]

    @given(st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_order_independent(self, cols):
        cols = [c for c in cols if any(c)]
        if not cols:
            return
        base = hnf_columns(cols, 3)
        shuffled = list(cols)
        random.Random(0).shuffle(shuffled)
        assert hnf_columns(shuffled, 3) == base


class TestKernel:
    @given(matrix_strategy())
    @settings(max_examples=100, deadline=None)
    def test_kernel_dimension_and_membership(self, rows):
        n = len(rows[0])
        basis = kernel_basis_int(rows, n)
        assert len(basis) == n - bareiss_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(a * v for a, v in zip(row, vec)) == 0
        # a Z-basis, not a finite-index sublattice: Z^n / span is torsion-free
        if basis:
            assert set(smith_normal_form(basis)) == {1}

    def test_certified_on_wide_matrix(self):
        rng = random.Random(5)
        rows = [[rng.randint(-3, 3) for _ in range(300)] for _ in range(120)]
        basis = kernel_basis_int(rows, 300)
        assert len(basis) == 300 - bareiss_rank(rows)
        for vec in basis:
            for row in rows:
                assert sum(a * v for a, v in zip(row, vec)) == 0

    def test_certified_rational_kernel(self):
        # neither entry divides the other, so the xgcd step runs; the kernel
        # of (3, 2) is spanned over Z by +-(2, -3) and by nothing larger
        basis = kernel_basis_int([[3, 2]], 2)
        assert basis in ([[2, -3]], [[-2, 3]])


def sparse_columns_strategy(max_entry=9):
    """(height, sparse columns {row: value} with rows below height, split)."""
    column = st.dictionaries(st.integers(0, 5), st.integers(-max_entry, max_entry)
                             .filter(bool), max_size=6)
    return st.tuples(st.lists(column, max_size=12), st.integers(0, 12))


def _state(ech):
    """A snapshot of an echelon's pivots, for checking it is left unchanged."""
    return {lead: dict(row) for lead, row in ech._ech.rows.items()}


class TestKernelEchelon:
    @given(sparse_columns_strategy())
    @settings(max_examples=200, deadline=None)
    def test_copy_resumes_the_one_shot_kernel(self, case):
        columns, split = case
        split = min(split, len(columns))
        ech = qlinalg.KernelEchelon(6)
        head = [rel for j, col in enumerate(columns[:split])
                if (rel := ech.add(col, j)) is not None]
        resumed = ech.copy()
        tail = [rel for j, col in enumerate(columns[split:], split)
                if (rel := resumed.add(col, j)) is not None]
        assert head + tail == kernel_basis_sparse(columns, 6)

    def test_copied_state_is_left_unchanged(self, monkeypatch):
        # dense columns with entries up to +-9 make the extended copy
        # size-reduce and replace pivots it shares no dict with
        calls = [0]
        original = qlinalg.IntEchelon._size_reduce

        def counting(ech, piv, lead):
            calls[0] += 1
            return original(ech, piv, lead)

        monkeypatch.setattr(qlinalg.IntEchelon, "_size_reduce", counting)
        rng = random.Random(7)
        for _ in range(100):
            height, n = rng.randint(2, 6), rng.randint(2, 10)
            columns = [{i: v for i in range(height) if (v := rng.randint(-9, 9))}
                       for _ in range(n)]
            split = rng.randint(1, n - 1)
            ech = qlinalg.KernelEchelon(height)
            for j in range(split):
                ech.add(columns[j], j)
            before = _state(ech)
            resumed = ech.copy()
            tail = [resumed.add(columns[j], j) for j in range(split, n)]
            assert _state(ech) == before
            # the saved state still resumes to the same relations
            again = ech.copy()
            assert [again.add(columns[j], j) for j in range(split, n)] == tail
            assert _state(ech) == before
        assert calls[0] > 0

    def test_tags_place_relations(self):
        # relations are keyed by tag, whatever the order the tags come in
        ech = qlinalg.KernelEchelon(1)
        assert ech.add({0: 2}, 7) is None
        assert ech.add({0: 3}, 4) in ({7: 3, 4: -2}, {7: -3, 4: 2})


def _complex_of(P):
    return posets.order_complex(P)


def coboundary_rows(simplices_by_dim, d):
    """Sparse coboundary matrix C^d -> C^{d+1}: one {face: sign} per (d+1)-simplex."""
    if d + 1 >= len(simplices_by_dim):
        return []
    face_index = {s: i for i, s in enumerate(simplices_by_dim[d])}
    return [qlinalg._coboundary_row(tau, face_index) for tau in simplices_by_dim[d + 1]]


def uncleared_coboundary_ranks(simplices_by_dim):
    """Coboundary ranks with every row of every degree eliminated (oracle).

    The route `qlinalg._coboundary_ranks` took before clearing: each
    delta^d is ranked on its own, bottom up, with no row skipped.
    """
    ranks = {-1: 1 if simplices_by_dim and simplices_by_dim[0] else 0}
    for d in range(len(simplices_by_dim)):
        ech = qlinalg.IntEchelon()
        for row in coboundary_rows(simplices_by_dim, d):
            ech.add(row)
        ranks[d] = ech.rank()
    return ranks


class _EveryLead:
    """Stands in for IntEchelon._big so that every pivot is size-reduced."""

    def __contains__(self, lead):
        return True

    def add(self, lead):
        pass

    def discard(self, lead):
        pass


class _AlwaysSizeReduced(qlinalg.IntEchelon):
    """IntEchelon that size-reduces every pivot before use, as it once did."""

    def __init__(self):
        super().__init__()
        self._big = _EveryLead()


def _assert_clearing_agrees(cx):
    simp = cx.simplices_by_dim
    if simp:
        assert qlinalg._coboundary_ranks(simp) == uncleared_coboundary_ranks(simp)


class TestCohomology:
    def test_empty_complex_convention(self):
        assert reduced_cohomology_dims([[]]) == {-1: 1}
        assert reduced_cohomology_dims([]) == {-1: 1}

    def test_point_is_acyclic(self):
        P = posets.FinitePoset.from_covers(["a"], [])
        assert reduced_cohomology_dims(_complex_of(P)) == {}

    def test_two_points_s0(self):
        P = posets.FinitePoset.from_covers(["a", "b"], [])
        assert reduced_cohomology_dims(_complex_of(P)) == {0: 1}

    def test_chain_is_full_simplex(self):
        P = posets.FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2)])
        cx = _complex_of(P)
        assert [len(level) for level in cx.simplices_by_dim] == [3, 3, 1]
        assert reduced_cohomology_dims(cx) == {}

    def test_hexagon_circle(self, lattice_cache):
        lat = lattice_cache("C30")
        interval = open_interval(
            lat.poset, lat.top_index(), lat.bottom_index()
        )
        assert interval.n == 6
        assert reduced_cohomology_dims(_complex_of(interval)) == {1: 1}

    def test_cube_boundary_sphere(self, lattice_cache):
        lat = lattice_cache("2*2*2")
        interval = open_interval(
            lat.poset, lat.top_index(), lat.bottom_index()
        )
        dims = reduced_cohomology_dims(_complex_of(interval))
        assert set(dims) == {1}
        assert dims[1] >= 1

    def test_homology_equals_cohomology(self, rng):
        for _ in range(25):
            P = random_poset(rng.randint(1, 7), rng)
            cx = _complex_of(P)
            assert reduced_cohomology_dims(cx) == reduced_homology_dims(cx)
            _assert_clearing_agrees(cx)

    def test_euler_characteristic(self, rng):
        for _ in range(25):
            P = random_poset(rng.randint(1, 7), rng)
            cx = _complex_of(P)
            dims = reduced_cohomology_dims(cx)
            chi = sum((-1) ** d * v for d, v in dims.items())
            assert chi == euler_characteristic_reduced(cx)

    def test_torsion_surface_face_poset(self):
        # closed non-orientable surface (chi = 1) as a face poset: its order
        # complex is the barycentric subdivision, rationally acyclic but with
        # 2-torsion, so both eliminations must report no rational cohomology
        facets = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
            (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
        ]
        vertices = sorted({v for f in facets for v in f})
        edges = sorted({tuple(sorted(e)) for f in facets for e in
                        [(f[0], f[1]), (f[0], f[2]), (f[1], f[2])]})
        assert len(vertices) == 6 and len(edges) == 15
        cells = [("v", (v,)) for v in vertices]
        cells += [("e", e) for e in edges]
        cells += [("t", tuple(sorted(f))) for f in facets]
        index = {c: i for i, c in enumerate(cells)}
        covers = []
        for kind, cell in cells:
            if kind == "e":
                for v in cell:
                    covers.append((index[("v", (v,))], index[(kind, cell)]))
            elif kind == "t":
                for e in [(cell[0], cell[1]), (cell[0], cell[2]), (cell[1], cell[2])]:
                    covers.append((index[("e", e)], index[(kind, cell)]))
        face_poset = posets.FinitePoset.from_covers(
            [f"{k}{c}" for k, c in cells], covers
        )
        cx = posets.order_complex(face_poset)
        assert reduced_cohomology_dims(cx) == {}
        assert reduced_homology_dims(cx) == {}
        _assert_clearing_agrees(cx)

    def test_rank_nullity_relation(self):
        # dim C^n = rank(d^n) + nullity(d^n) on a fixed small complex
        P = posets.FinitePoset.from_covers(
            ["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)]
        )
        cx = _complex_of(P)
        for d in range(len(cx.simplices_by_dim)):
            rows = coboundary_rows(cx.simplices_by_dim, d)
            n_d = len(cx.simplices_by_dim[d])
            if rows:
                dense = [[row.get(j, 0) for j in range(n_d)] for row in rows]
                r = echelon_rank(dense)
                nullity = len(kernel_basis_int(dense, n_d))
                assert r == bareiss_rank(dense)
                assert r + nullity == n_d


class TestClearing:
    """The cleared coboundary ranks against the uncleared loop and Bareiss.

    Random posets and the torsion surface are checked in TestCohomology.
    """

    # Bareiss is dense; the one larger interval (the whole proper part of
    # Sub(C2xC2xC2xC3xC3), 3067 simplices) is checked by the closed form
    BAREISS_MAX_SIMPLICES = 2000

    @pytest.mark.parametrize("spec", ["C2xC2xC2xC2", "C2xC2xC2xC3xC3"])
    def test_every_open_interval_of_subgroup_lattice(self, spec, lattice_cache):
        lat = lattice_cache(spec)
        P = posets.parse_poset_text(posets.poset_to_text(lat.poset))
        checked = 0
        for x in range(P.n):
            for y in range(P.n):
                if y == x or not P.leq(y, x):
                    continue
                cx = _complex_of(open_interval(P, x, y))
                _assert_clearing_agrees(cx)
                dims = reduced_cohomology_dims(cx)
                assert dims == izext.prop_cohomology_of_type(lat.section_type(x, y))
                if cx.total_simplices() <= self.BAREISS_MAX_SIMPLICES:
                    assert dims == reduced_homology_dims(cx)
                checked += 1
        assert checked == {"C2xC2xC2xC2": 446, "C2xC2xC2xC3xC3": 894}[spec]

    def test_clearing_skips_rows(self, lattice_cache, monkeypatch):
        # the proper part of Sub(C2^4) has 65 vertices, 315 edges and 315
        # triangles; delta^1 has a row per triangle and clears the 251 edges
        # leading its pivots, so delta^0 builds 64 of its 315 edge rows
        lat = lattice_cache("C2xC2xC2xC2")
        cx = _complex_of(
            open_interval(lat.poset, lat.top_index(), lat.bottom_index())
        )
        built = [0]
        original = qlinalg._coboundary_row

        def counting(tau, face_index):
            built[0] += 1
            return original(tau, face_index)

        monkeypatch.setattr(qlinalg, "_coboundary_row", counting)
        ranks = qlinalg._coboundary_ranks(cx.simplices_by_dim)
        assert ranks == {-1: 1, 0: 64, 1: 251, 2: 0}
        assert built[0] == 315 + 64
        assert reduced_cohomology_dims(cx) == {2: 64}


class TestUnitPivots:
    """Skipping the size reduction of +-1 pivots leaves every pivot unchanged."""

    @staticmethod
    def _count_xgcd(monkeypatch):
        calls = [0]
        original = qlinalg._xgcd

        def counting(a, b):
            calls[0] += 1
            return original(a, b)

        monkeypatch.setattr(qlinalg, "_xgcd", counting)
        return calls

    def test_rows_identical_on_dense_matrices(self, rng, monkeypatch):
        xgcd_calls = self._count_xgcd(monkeypatch)
        for _ in range(300):
            m, n, e = rng.randint(1, 8), rng.randint(1, 8), rng.choice((2, 3, 9))
            rows = [[rng.randint(-e, e) for _ in range(n)] for _ in range(m)]
            ech, ref = qlinalg.IntEchelon(), _AlwaysSizeReduced()
            for r in rows:
                sparse = {j: v for j, v in enumerate(r) if v}
                assert ech.add(dict(sparse)) == ref.add(dict(sparse))
                assert ech.rows == ref.rows
        assert xgcd_calls[0] > 0

    def test_kernels_identical_on_dense_matrices(self, rng, monkeypatch):
        xgcd_calls = self._count_xgcd(monkeypatch)
        cases = []
        for _ in range(150):
            m, n, e = rng.randint(1, 6), rng.randint(1, 8), rng.choice((2, 3, 9))
            cases.append([[rng.randint(-e, e) for _ in range(n)] for _ in range(m)])
        fast = [kernel_basis_int(rows) for rows in cases]
        assert xgcd_calls[0] > 0
        monkeypatch.setattr(qlinalg, "IntEchelon", _AlwaysSizeReduced)
        assert [kernel_basis_int(rows) for rows in cases] == fast

    def test_unit_pivots_are_never_marked(self, lattice_cache):
        # every coboundary row holds only +-1, and on this complex every
        # pivot stays so; none is marked, so none is ever size-reduced
        lat = lattice_cache("C2xC2xC2xC2")
        cx = _complex_of(
            open_interval(lat.poset, lat.top_index(), lat.bottom_index())
        )
        ech = qlinalg.IntEchelon()
        for row in coboundary_rows(cx.simplices_by_dim, 1):
            ech.add(row)
        assert ech.rank() == 251
        assert not ech._big
