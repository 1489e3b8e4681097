import pytest

from mackeydim import izext, posets
from mackeydim.oracle import (
    OracleError,
    ext_table_oracle,
    gldim_oracle,
    minimal_resolution,
)

from conftest import random_poset


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
        lat = lattice_cache("C3xC3xC3xC3")
        P = posets.parse_poset_text(posets.poset_to_text(lat.poset))
        assert ext_table_oracle(P) == izext.ext_table(P)

    @pytest.mark.parametrize("covers", GRADED_COVERS,
                             ids=("graded-13", "graded-16", "graded-8"))
    def test_graded_with_bottom_and_top(self, covers):
        P = poset_from_covers(covers)
        assert ext_table_oracle(P) == izext.ext_table(P)
