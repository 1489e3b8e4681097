import importlib.util
import sys
from pathlib import Path

import pytest

from mackeydim import groups, qlinalg
from mackeydim.posets import (
    FinitePoset,
    PosetError,
    dismantle_mask,
    hasse_dot,
    mask_indices,
    order_complex,
    parse_poset_text,
    poset_to_text,
    product,
)

from conftest import random_poset
from poset_oracle import dismantle, open_interval, poset_isomorphic, transpose


def diamond():
    return FinitePoset.from_covers(["e", "p", "q", "G"], [(0, 1), (0, 2), (1, 3), (2, 3)])


def restricted_dismantle(P):
    """The reference route: dismantle a poset on its own masks (callers pass
    the restricted interval), returning the restricted survivors."""
    n = P.n
    alive = (1 << n) - 1 if n else 0
    up = list(P.up)
    down = list(P.down)

    def unique_extreme(mask, rows):
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            if mask & ~rows[j] == 0:
                return j
        return None

    changed = True
    while changed:
        changed = False
        m = alive
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            upset = up[i] & alive & ~(1 << i)
            if upset and unique_extreme(upset, up) is not None:
                alive &= ~(1 << i)
                changed = True
                continue
            downset = down[i] & alive & ~(1 << i)
            if downset and unique_extreme(downset, down) is not None:
                alive &= ~(1 << i)
                changed = True
    indices = [i for i in range(n) if (alive >> i) & 1]
    if len(indices) == n:
        return P
    return P.restrict(indices)


def generic_ext_inputs():
    """The 206 posets of the benchmark's generic-ext workload, as it writes
    them: the oracle-defect poset, 200 graded posets and five subgroup
    lattices, each read back from its poset file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    texts = [bench.defect_poset_text()]
    texts += [bench.graded_poset_text(i) for i in range(bench.GRADED_COUNT)]
    texts += [poset_to_text(groups.subgroup_lattice(groups.parse_group(g)).poset)
              for g in bench.POSET_LATTICES]
    return [parse_poset_text(t) for t in texts]


def assert_same_survivors(P, x, y):
    """Dismantling (y, x) on P's masks keeps what dismantling it after
    restricting keeps, point for point; return the survivors' mask."""
    mask = dismantle_mask(P, P.down[x] & P.up[y] & ~(1 << x) & ~(1 << y))
    in_place = P.restrict(mask_indices(mask))
    assert in_place == restricted_dismantle(open_interval(P, x, y)), (x, y)
    return mask


def assert_same_chains(P, mask):
    """The chains walked on P's masks are those of the restricted poset,
    mapped back through its indices, in the same order."""
    indices = mask_indices(mask)
    restricted = order_complex(P.restrict(indices)).simplices_by_dim
    mapped = [[tuple(indices[i] for i in chain) for chain in level] for level in restricted]
    assert order_complex(P, mask).simplices_by_dim == mapped, bin(mask)


class TestConstruction:
    def test_reflexive_required(self):
        with pytest.raises(PosetError):
            FinitePoset(2, ["a", "b"], [0b01, 0b00])

    def test_antisymmetry(self):
        with pytest.raises(PosetError):
            FinitePoset(2, ["a", "b"], [0b11, 0b11])

    def test_transitivity(self):
        up = [0b011, 0b110, 0b100]  # a<b, b<c but a<c missing
        with pytest.raises(PosetError):
            FinitePoset(3, ["a", "b", "c"], up)

    def test_cycle_detection_in_covers(self):
        with pytest.raises(PosetError):
            FinitePoset.from_covers(["a", "b"], [(0, 1), (1, 0)])

    def test_covers_are_transitive_reduction(self):
        P = FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
        assert P.covers() == [(0, 1), (1, 2)]

    def test_down_is_built_on_first_read(self, rng):
        assert diamond().down == (0b0001, 0b0011, 0b0101, 0b1111)
        for n in [0, 1, 2, 5, 9, 14, 20]:
            P = random_poset(n, rng)
            assert P._down is None
            assert P.down == transpose(P.up)
            assert P._down is P.down


class TestInterval:
    def test_diamond_middle(self):
        P = diamond()
        I = open_interval(P, 3, 0)
        assert I.n == 2
        assert sorted(I.labels) == ["p", "q"]
        assert I.covers() == []

    def test_adjacent_pair_empty(self):
        P = FinitePoset.from_covers(["y", "x"], [(0, 1)])
        assert open_interval(P, 1, 0).n == 0

    def test_incomparable_empty(self):
        P = diamond()
        assert open_interval(P, 1, 2).n == 0
        assert open_interval(P, 1, 1).n == 0

    def test_out_of_range(self):
        with pytest.raises(PosetError):
            open_interval(diamond(), 0, 9)

    def test_c30_hexagon(self, lattice_cache):
        lat = lattice_cache("C30")
        I = open_interval(lat.poset, lat.top_index(), lat.bottom_index())
        assert I.n == 6
        # circuit: every element covers/covered by exactly two others in total
        degree = [0] * 6
        for a, b in I.covers():
            degree[a] += 1
            degree[b] += 1
        assert sorted(degree) == [2] * 6


class TestHeight:
    def test_chain_height(self, lattice_cache):
        assert lattice_cache("C8").poset.height() == 3
        assert lattice_cache("C4").poset.height() == 2

    def test_discrete(self):
        P = FinitePoset.from_covers(list("abcde"), [])
        assert P.height() == 0

    def test_c6(self, lattice_cache):
        assert lattice_cache("C6").poset.height() == 2

    def test_product_additivity(self, rng):
        for _ in range(10):
            P = random_poset(rng.randint(1, 5), rng)
            Q = random_poset(rng.randint(1, 5), rng)
            assert product(P, Q).height() == P.height() + Q.height()


class TestOrderComplex:
    def test_two_point_discrete(self):
        P = FinitePoset.from_covers(["a", "b"], [])
        cx = order_complex(P)
        assert cx.simplices_by_dim == [[(0,), (1,)]]

    def test_single_point(self):
        P = FinitePoset.from_covers(["a"], [])
        assert order_complex(P).simplices_by_dim == [[(0,)]]

    def test_chain_full_simplex(self):
        P = FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2)])
        cx = order_complex(P)
        assert cx.simplices_by_dim[0] == [(0,), (1,), (2,)]
        assert cx.simplices_by_dim[1] == [(0, 1), (0, 2), (1, 2)]
        assert cx.simplices_by_dim[2] == [(0, 1, 2)]
        # a mask keeps P's own indices
        assert order_complex(P, 0b101).simplices_by_dim == [[(0,), (2,)], [(0, 2)]]
        assert order_complex(P, 0).simplices_by_dim == []

    def test_face_closure(self, rng):
        for _ in range(15):
            P = random_poset(rng.randint(1, 7), rng)
            cx = order_complex(P)
            for d in range(1, len(cx.simplices_by_dim)):
                lower = set(cx.simplices_by_dim[d - 1])
                for s in cx.simplices_by_dim[d]:
                    for i in range(len(s)):
                        assert s[:i] + s[i + 1 :] in lower

    def test_vertex_count_of_proper_interval(self, lattice_cache):
        for spec in ["C6", "C12", "C2xC2", "C30"]:
            lat = lattice_cache(spec)
            I = open_interval(lat.poset, lat.top_index(), lat.bottom_index())
            assert len(order_complex(I).simplices_by_dim[0]) == lat.n - 2


class TestProduct:
    def test_chain_times_chain_is_diamond(self):
        C = FinitePoset.from_covers(["0", "1"], [(0, 1)])
        D = product(C, C)
        assert poset_isomorphic(D, diamond())

    def test_unit_law(self, rng):
        one = FinitePoset.from_covers(["*"], [])
        for _ in range(5):
            P = random_poset(rng.randint(1, 6), rng)
            assert poset_isomorphic(product(P, one), P)

    def test_subgroup_lattice_product(self, lattice_cache):
        P2 = lattice_cache("C2").poset
        P3 = lattice_cache("C3").poset
        P6 = lattice_cache("C6").poset
        assert poset_isomorphic(product(P2, P3), P6)


class TestDismantle:
    def test_cone_collapses(self):
        P = diamond()
        assert dismantle(P).n == 1

    def test_antichain_untouched(self):
        P = FinitePoset.from_covers(["a", "b", "c"], [])
        assert dismantle(P).n == 3

    def test_preserves_cohomology(self, rng):
        for _ in range(30):
            P = random_poset(rng.randint(1, 8), rng)
            a = qlinalg.reduced_cohomology_dims(order_complex(P))
            b = qlinalg.reduced_cohomology_dims(order_complex(dismantle(P)))
            assert a == b


class TestDismantleMask:
    def test_intervals_of_the_generic_ext_inputs(self):
        inputs = generic_ext_inputs()
        assert len(inputs) == 206
        intervals = 0
        for P in inputs:
            for x in range(P.n):
                for y in mask_indices(P.down[x] & ~(1 << x)):
                    assert_same_chains(P, assert_same_survivors(P, x, y))
                    intervals += 1
        assert intervals == 23917

    def test_index_order_not_a_linear_extension(self, rng):
        # random DAGs relabelled by a random permutation, so a point may
        # come before a point below it
        unordered = 0
        for _ in range(150):
            n = rng.randint(1, 10)
            perm = list(range(n))
            rng.shuffle(perm)
            covers = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < 0.35]
            P = FinitePoset.from_covers([f"p{i}" for i in range(n)], covers)
            unordered += any(a > b for a, b in covers)
            assert dismantle(P) == restricted_dismantle(P)
            for x in range(P.n):
                for y in mask_indices(P.down[x] & ~(1 << x)):
                    assert_same_survivors(P, x, y)
        assert unordered > 100

    def test_mask_indices(self):
        assert mask_indices(0) == []
        assert mask_indices(0b101001) == [0, 3, 5]


class TestIsomorphism:
    def test_distinguishes_shapes(self):
        chain = FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (1, 2)])
        vee = FinitePoset.from_covers(["a", "b", "c"], [(0, 1), (0, 2)])
        assert not poset_isomorphic(chain, vee)

    def test_relabelling(self, rng):
        for _ in range(10):
            P = random_poset(rng.randint(1, 6), rng)
            perm = list(range(P.n))
            rng.shuffle(perm)
            Q = P.restrict(perm)
            assert poset_isomorphic(P, Q)


class TestTextFormat:
    def test_round_trip(self, rng):
        for _ in range(10):
            P = random_poset(rng.randint(1, 7), rng)
            Q = parse_poset_text(poset_to_text(P))
            assert Q.labels == P.labels and Q.up == P.up

    def test_unknown_element(self):
        with pytest.raises(PosetError):
            parse_poset_text("elements: a b\ncover: a < z\n")

    def test_missing_elements_line(self):
        with pytest.raises(PosetError):
            parse_poset_text("cover: a < b\n")

    def test_duplicate_labels(self):
        with pytest.raises(PosetError):
            parse_poset_text("elements: a a\n")


class TestDot:
    def test_contains_cover_edges(self):
        dot = hasse_dot(diamond())
        assert "digraph" in dot
        assert "n0 -> n1" in dot and "n2 -> n3" in dot
        assert "n0 -> n3" not in dot
