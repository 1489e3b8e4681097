import random

import pytest

from mackeydim import groups, izext, oracle, posets
from mackeydim.oracle import (
    OracleError,
    ext_table_oracle,
    gldim_oracle,
    minimal_resolution,
)

from conftest import random_poset
from resolution_oracle import minimal_resolution_reference


def chain2():
    return posets.FinitePoset.from_covers(["y", "x"], [(0, 1)])


def poset_from_covers(text):
    """Poset on p0..p{n-1} from "p0<p1,p2; p1,p2<p3"-style cover groups."""
    pairs = []
    for part in text.split(";"):
        lo, hi = part.split("<")
        pairs += [(int(a.strip()[1:]), int(b.strip()[1:]))
                  for a in lo.split(",") for b in hi.split(",")]
    n = 1 + max(max(pair) for pair in pairs)
    return posets.FinitePoset.from_covers([f"p{i}" for i in range(n)], pairs)


def raw_subgroup_poset(lattice_cache, spec):
    lat = lattice_cache(spec)
    return posets.parse_poset_text(posets.poset_to_text(lat.poset))


# Smallest known poset on which a mod-p choice of the cover top overcounted
# it ("cover is not minimal: kernel meets the top"); izext gives gldim 3.
DEFECT_COVERS = (
    "p0<p1,p2,p3,p4; p1<p5,p7; p2<p6,p8; p3<p7; p4<p8; p5<p9,p10,p11,p12; "
    "p6<p9,p10; p7<p9,p10,p12; p8<p10,p11; p9,p10,p11,p12<p13"
)

# Graded posets with a bottom and a top; the first two also hit the
# overcounted cover top.
GRADED_COVERS = (
    "p0<p1,p2,p3; p1<p5,p6,p7; p2<p7,p8; p3<p4; p4<p11; p5<p9; "
    "p6<p9,p10,p11; p7<p9,p11; p8<p9,p10,p11; p9,p10,p11<p12",
    "p0<p1,p2,p3,p4,p5,p6; p1<p7,p8; p2<p8,p9; p3<p8,p9; p4<p8,p10; "
    "p5<p8,p9; p6<p7,p9; p7<p11,p12,p13; p8<p14; p9<p11,p12,p13,p14; "
    "p10<p11,p12; p11,p12,p13,p14<p15",
    "p0<p1,p2,p3; p1<p4,p5,p6; p2<p4; p3<p5; p4,p5,p6<p7",
)


class TestMinimalResolution:
    def test_chain_resolves_in_one_step(self):
        P = chain2()
        assert minimal_resolution(P, 1) == [{1: 1}, {0: 1}]

    def test_discrete_simple_projective(self):
        P = posets.FinitePoset.from_covers(list("abc"), [])
        for x in range(3):
            assert minimal_resolution(P, x) == [{x: 1}]

    def test_c6_top_resolution(self, lattice_cache):
        lat = lattice_cache("C6")
        mults = minimal_resolution(lat.poset, lat.top_index())
        assert len(mults) == 3
        assert mults[2] == {lat.bottom_index(): 1}

    def test_max_len_guard(self, lattice_cache):
        lat = lattice_cache("C6")
        with pytest.raises(OracleError):
            minimal_resolution(lat.poset, lat.top_index(), max_len=1)


class TestGldimOracle:
    def test_top_degree_is_the_longest_resolution(self, rng):
        for _ in range(40):
            P = random_poset(rng.randint(1, 7), rng)
            assert gldim_oracle(P) == max(len(minimal_resolution(P, x)) - 1
                                          for x in range(P.n))

    def test_empty_poset_and_max_len_guard(self, lattice_cache):
        with pytest.raises(OracleError, match="empty poset"):
            gldim_oracle(posets.FinitePoset(0, [], []))
        with pytest.raises(OracleError):
            gldim_oracle(lattice_cache("C6").poset, max_len=1)

    def test_golden(self, lattice_cache):
        assert gldim_oracle(lattice_cache("C4").poset) == 1
        assert gldim_oracle(lattice_cache("C30").poset) == 3
        assert gldim_oracle(lattice_cache("C2xC2").poset) == 2

    def test_f5_fixture(self):
        from conftest import FIXTURES

        P = posets.parse_poset_text((FIXTURES / "f5_subgroups.poset").read_text())
        assert gldim_oracle(P) == 2


class TestAgreementWithIzext:
    def test_random_posets(self, rng):
        for _ in range(60):
            P = random_poset(rng.randint(1, 7), rng)
            assert ext_table_oracle(P) == izext.ext_table(P)
            assert izext.gldim_incidence(P) == gldim_oracle(P)

    def test_small_lattices(self, lattice_cache):
        for spec in ["C6", "C12", "C2xC2", "C2xC4", "C30", "C2xC2xC2", "C3xC9"]:
            lat = lattice_cache(spec)
            a = ext_table_oracle(lat.poset)
            b = {}
            for x in range(lat.n):
                for y in range(lat.n):
                    for n, d in izext.ext_dims_section(lat, x, y).items():
                        b[(x, y, n)] = d
            assert a == b, spec

    def test_defect_poset(self):
        P = poset_from_covers(DEFECT_COVERS)
        table = ext_table_oracle(P)
        assert table == izext.ext_table(P)
        assert max(n for (_x, _y, n) in table) == 3

    def test_c3_to_the_4_as_raw_poset(self, lattice_cache):
        # the only input whose syzygy kernels are wider than 200 columns
        # (up to 1080 x 729); as a raw poset izext takes the interval route
        P = raw_subgroup_poset(lattice_cache, "C3xC3xC3xC3")
        assert ext_table_oracle(P) == izext.ext_table(P)

    @pytest.mark.parametrize("covers", GRADED_COVERS,
                             ids=("graded-13", "graded-16", "graded-8"))
    def test_graded_with_bottom_and_top(self, covers):
        P = poset_from_covers(covers)
        assert ext_table_oracle(P) == izext.ext_table(P)


# ---------------------------------------------------------------------------
# Two routes: kernels continued from the widest cover, tops in the new
# columns and one resolution per distinct down-set, against a fresh kernel
# and a full greedy top at every element (tests/resolution_oracle.py)
# ---------------------------------------------------------------------------


def graded_posets():
    """Seeded random graded posets with a bottom and a top."""
    rng = random.Random(20261020)
    out = []
    for _ in range(12):
        ranks = [[0]]
        n = 1
        for _r in range(rng.randint(1, 4)):
            ranks.append(list(range(n, n + rng.randint(1, 4))))
            n = ranks[-1][-1] + 1
        ranks.append([n])
        pairs = []
        for lower, upper in zip(ranks, ranks[1:]):
            for y in upper:
                pairs += [(x, y) for x in rng.sample(lower, rng.randint(1, len(lower)))]
            pairs += [(x, rng.choice(upper)) for x in lower
                      if not any(a == x for a, _b in pairs)]
        out.append(posets.FinitePoset.from_covers([f"p{i}" for i in range(n + 1)], pairs))
    return out


def assert_routes_agree(P):
    direct = {}
    for x in range(P.n):
        mults = minimal_resolution(P, x)
        assert mults == minimal_resolution_reference(P, x), x
        for n, level in enumerate(mults):
            for y, m in level.items():
                direct[(x, y, n)] = m
    assert ext_table_oracle(P) == direct


class TestTwoRoutes:
    def test_abelian_lattices_to_order_100(self):
        checked = 0
        for order in range(1, 101):
            for G in groups.abelian_groups_of_order(order):
                try:
                    lat = groups.subgroup_lattice(G, max_count=250)
                except groups.BudgetExceededError:
                    continue
                assert_routes_agree(lat.poset)
                checked += 1
        assert checked == 181  # all but C2^5, C2^4xC4, C2^5xC3 and C2^6

    def test_c3_to_the_4_as_raw_poset(self, lattice_cache):
        assert_routes_agree(raw_subgroup_poset(lattice_cache, "C3xC3xC3xC3"))

    def test_defect_and_graded_posets(self):
        assert_routes_agree(poset_from_covers(DEFECT_COVERS))
        for covers in GRADED_COVERS:
            assert_routes_agree(poset_from_covers(covers))
        for P in graded_posets():
            assert_routes_agree(P)

    def test_random_posets(self, rng):
        for _ in range(300):
            assert_routes_agree(random_poset(rng.randint(1, 9), rng))


class TestOneResolutionPerDownSet:
    def chain_and_diamond(self):
        # down(3) is the chain 0 < 1 < 2 < 3; down(6) is a bottom 0 with two
        # atoms 4, 5 below 6: the same size, different orders
        return posets.FinitePoset.from_covers(
            [f"p{i}" for i in range(7)],
            [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (4, 6), (5, 6)])

    def count_runs(self, monkeypatch):
        runs = [0]
        original = oracle._Resolution.run

        def counting(res):
            runs[0] += 1
            return original(res)

        monkeypatch.setattr(oracle._Resolution, "run", counting)
        return runs

    def test_equal_sizes_different_orders(self, monkeypatch):
        P = self.chain_and_diamond()
        above = P.upper_covers()
        (chain, chain_key), (diamond, diamond_key) = (
            oracle._relabelled_order(P, above, 3), oracle._relabelled_order(P, above, 6))
        assert (chain, diamond) == ([0, 1, 2, 3], [0, 4, 5, 6])
        assert chain_key != diamond_key
        runs = self.count_runs(monkeypatch)
        table = ext_table_oracle(P)
        # p1, p4 and p5 share the order of a 2-chain; p0, p2, p3 and p6 each
        # have an order of their own
        assert runs[0] == 5
        assert {k: d for k, d in table.items() if k[0] == 3} == {
            (3, 3, 0): 1, (3, 2, 1): 1}
        assert {k: d for k, d in table.items() if k[0] == 6} == {
            (6, 6, 0): 1, (6, 4, 1): 1, (6, 5, 1): 1, (6, 0, 2): 1}
        assert table == izext.ext_table(P)

    def test_resolutions_share_the_cover_masks(self, monkeypatch):
        # the upper covers are built once per poset, not once per resolution
        P = self.chain_and_diamond()
        seen = []
        original = oracle._Resolution.__init__

        def recording(res, P, x, max_len, above):
            seen.append(above)
            original(res, P, x, max_len, above)

        monkeypatch.setattr(oracle._Resolution, "__init__", recording)
        ext_table_oracle(P)
        assert len(seen) == 5
        assert all(above is P.upper_covers() for above in seen)

    def test_c3_to_the_4_runs_five_resolutions(self, lattice_cache, monkeypatch):
        P = raw_subgroup_poset(lattice_cache, "C3xC3xC3xC3")
        runs = self.count_runs(monkeypatch)
        ext_table_oracle(P)
        assert (P.n, runs[0]) == (212, 5)


class TestAuditsStillRaise:
    """Each audit of `_syzygy` catches a cover step made faulty on purpose."""

    def fault(self, monkeypatch, change):
        original = oracle._Resolution._cover_step

        def faulty(res, *syzygy):
            new_summands, mult = original(res, *syzygy)
            return change(new_summands), mult

        monkeypatch.setattr(oracle._Resolution, "_cover_step", faulty)

    def test_cover_misses(self, monkeypatch):
        # S_x on y < x: the only summand of step 1 is dropped
        self.fault(monkeypatch, lambda summands: [])
        with pytest.raises(OracleError, match="cover misses"):
            minimal_resolution(chain2(), 1)

    def test_exactness(self, monkeypatch):
        # the top of the bottom in step 2 has two vectors; one is dropped,
        # so the cover is not onto there while columns remain
        P = poset_from_covers("p0<p1,p2,p3; p1,p2,p3<p4")
        self.fault(monkeypatch, lambda summands: summands[:-1]
                   if [y for y, _v in summands].count(0) > 1 else summands)
        with pytest.raises(OracleError, match="exactness"):
            minimal_resolution(P, 4)

    def test_minimality(self, monkeypatch):
        # on 0 < 1 < 2, S_2's step 1 gets a second summand at 0 that lies in
        # the radical there
        P = poset_from_covers("p0<p1; p1<p2")
        self.fault(monkeypatch, lambda summands: summands + [(0, {0: 1})]
                   if summands and summands[0][1] == {0: 1} else summands)
        with pytest.raises(OracleError, match="not minimal"):
            minimal_resolution(P, 2)
