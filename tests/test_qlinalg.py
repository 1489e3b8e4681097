import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mackeydim import posets, qlinalg
from mackeydim.qlinalg import (
    bareiss_rank,
    euler_characteristic_reduced,
    gauss_rank,
    hnf_columns,
    kernel_basis_int,
    rank,
    reduced_cohomology_dims,
    reduced_homology_dims,
    smith_normal_form,
)

from conftest import random_poset


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
        assert rank([[0, 0], [0, 0], [0, 0]]) == 0

    def test_identity(self):
        assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3

    def test_proportional_rows(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_fraction_entries(self):
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]) == 1
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), 1]]) == 2

    @given(matrix_strategy())
    @settings(max_examples=150, deadline=None)
    def test_elimination_methods_agree(self, rows):
        assert bareiss_rank(rows) == gauss_rank(rows)

    @given(matrix_strategy())
    @settings(max_examples=150, deadline=None)
    def test_echelon_agrees_with_references(self, rows):
        assert rank(rows) == bareiss_rank(rows) == gauss_rank(rows)


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


def _complex_of(P):
    return posets.order_complex(P)


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
        assert cx.counts() == [3, 3, 1]
        assert reduced_cohomology_dims(cx) == {}

    def test_hexagon_circle(self, lattice_cache):
        lat = lattice_cache("C30")
        interval = posets.open_interval(
            lat.poset, lat.top_index(), lat.bottom_index()
        )
        assert interval.n == 6
        assert reduced_cohomology_dims(_complex_of(interval)) == {1: 1}

    def test_cube_boundary_sphere(self, lattice_cache):
        lat = lattice_cache("2*2*2")
        interval = posets.open_interval(
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

    def test_rank_nullity_relation(self):
        # dim C^n = rank(d^n) + nullity(d^n) on a fixed small complex
        P = posets.FinitePoset.from_covers(
            ["a", "b", "c", "d"], [(0, 1), (0, 2), (1, 3), (2, 3)]
        )
        cx = _complex_of(P)
        for d in range(len(cx.simplices_by_dim)):
            rows = qlinalg._coboundary_rows(cx.simplices_by_dim, d)
            n_d = len(cx.simplices_by_dim[d])
            if rows:
                dense = [[row.get(j, 0) for j in range(n_d)] for row in rows]
                r = rank(dense)
                nullity = len(kernel_basis_int(dense, n_d))
                assert r == bareiss_rank(dense)
                assert r + nullity == n_d

