import pytest

from mackeydim import groups, izext, posets, qlinalg
from mackeydim.izext import (
    IzextError,
    ext_dims,
    ext_dims_section,
    frattini_realization,
    gldim_incidence,
    gldim_subgroup_lattice,
    prop_cohomology_of_type,
    section_contribution,
)
from mackeydim.posets import mask_indices

from conftest import FIXTURES, random_poset
from group_oracle import frattini_indices
from poset_oracle import open_interval
from section_oracle import FULL_BUILDING_LIMIT, building_summary, join_dims


def f5_subgroups():
    return posets.parse_poset_text((FIXTURES / "f5_subgroups.poset").read_text())


def f5_conjugacy():
    return posets.parse_poset_text((FIXTURES / "f5_conjugacy.poset").read_text())


class TestExtDims:
    def test_self_ext(self, lattice_cache):
        P = lattice_cache("C6").poset
        for x in range(P.n):
            assert ext_dims(P, x, x) == {0: 1}

    def test_incomparable_zero(self, lattice_cache):
        lat = lattice_cache("C6")
        P = lat.poset
        assert ext_dims(P, lat.index_of_label("C2"), lat.index_of_label("C3")) == {}
        # and the reversed direction of a comparable pair
        assert ext_dims(P, lat.bottom_index(), lat.top_index()) == {}

    def test_c6_full_table(self, lattice_cache):
        lat = lattice_cache("C6")
        P = lat.poset
        i = lat.index_of_label
        assert ext_dims(P, i("C6"), i("C3")) == {1: 1}
        assert ext_dims(P, i("C6"), i("C2")) == {1: 1}
        assert ext_dims(P, i("C3"), i("C1")) == {1: 1}
        assert ext_dims(P, i("C2"), i("C1")) == {1: 1}
        assert ext_dims(P, i("C6"), i("C1")) == {2: 1}

    def test_c30_top_pair(self, lattice_cache):
        lat = lattice_cache("C30")
        assert ext_dims(lat.poset, lat.top_index(), lat.bottom_index()) == {3: 1}

    def test_c4_adjacent(self, lattice_cache):
        lat = lattice_cache("C4")
        assert ext_dims(lat.poset, lat.index_of_label("C4"), lat.index_of_label("C2")) == {1: 1}

    def test_reduce_matches_unreduced(self, rng):
        # the reference route: the open interval restricted to a poset of its
        # own, not dismantled, its whole order complex eliminated
        for _ in range(20):
            P = random_poset(rng.randint(2, 7), rng)
            for x in range(P.n):
                for y in mask_indices(P.down[x] & ~(1 << x)):
                    interval = open_interval(P, x, y)
                    coh = qlinalg.reduced_cohomology_dims(posets.order_complex(interval))
                    assert ext_dims(P, x, y) == {d + 2: v for d, v in coh.items()}, (x, y)

    def test_index_range(self, lattice_cache):
        with pytest.raises(IzextError):
            ext_dims(lattice_cache("C6").poset, 0, 99)


class TestGldim:
    def test_prime_power_chains(self, lattice_cache):
        for spec in ["C2", "C4", "C8", "C9", "C25"]:
            assert gldim_incidence(lattice_cache(spec).poset) == 1

    def test_golden_values(self, lattice_cache):
        assert gldim_incidence(lattice_cache("C6").poset) == 2
        assert gldim_incidence(lattice_cache("C30").poset) == 3
        assert gldim_incidence(lattice_cache("C2xC2").poset) == 2

    def test_one_point(self):
        P = posets.FinitePoset.from_covers(["*"], [])
        assert gldim_incidence(P) == 0

    def test_discrete(self):
        P = posets.FinitePoset.from_covers(list("abc"), [])
        assert gldim_incidence(P) == 0

    def test_empty_rejected(self):
        P = posets.FinitePoset(0, [], [])
        with pytest.raises(IzextError):
            gldim_incidence(P)

    def test_f5_fixtures(self):
        sub = f5_subgroups()
        conj = f5_conjugacy()
        assert sub.n == 14 and conj.n == 6
        assert gldim_incidence(sub) == 2
        assert gldim_incidence(conj) == 2

    def test_height_bound(self, rng):
        for _ in range(25):
            P = random_poset(rng.randint(1, 7), rng)
            assert gldim_incidence(P) <= P.height()

    def test_planar_fixtures_at_most_two(self, lattice_cache):
        # hand-verified planar posets: Sub_{C_{p^a q^b}} drawings and the
        # F_5 conjugacy poset
        for spec in ["C6", "C12", "C72", "C4", "C36"]:
            assert gldim_incidence(lattice_cache(spec).poset) <= 2
        assert gldim_incidence(f5_conjugacy()) <= 2

    def test_coprime_additivity(self, lattice_cache):
        cases = [("C4", "C3"), ("C2xC2", "C3"), ("C2", "C9"), ("C6", "C25")]
        for a, b in cases:
            Pa = lattice_cache(a).poset
            Pb = lattice_cache(b).poset
            prod = posets.product(Pa, Pb)
            assert gldim_incidence(prod) == gldim_incidence(Pa) + gldim_incidence(Pb)


class TestSectionEngine:
    def test_join_dims_convention(self):
        empty = {-1: 1}
        s0 = {0: 1}
        assert join_dims(empty, s0) == s0
        assert join_dims(s0, s0) == {1: 1}
        assert join_dims({1: 2}, empty) == {1: 2}

    def test_join_formula_matches_direct(self, lattice_cache):
        # prop(Sub_{A x B}) for coprime A, B vs the closed form
        for a, b in [("C2", "C3"), ("C2xC2", "C3"), ("C4", "C9"), ("C2xC2", "C3xC3")]:
            A = groups.parse_group(a)
            B = groups.parse_group(b)
            G = groups.AbelianGroup(A.factors + B.factors)
            lat = groups.subgroup_lattice(G)
            interval = open_interval(
                lat.poset, lat.top_index(), lat.bottom_index()
            )
            direct = qlinalg.reduced_cohomology_dims(posets.order_complex(interval))
            key = groups.primary_type_key(G.primary_type())
            assert prop_cohomology_of_type(key) == direct

    def test_building_dimensions(self):
        # Solomon-Tits: Ext^k(S_Q, S_1) = Q^{p^{k(k-1)/2}} for Q = (C_p)^k,
        # also past the rank that the building oracle eliminates in full
        for p, k in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (2, 6), (2, 7), (3, 6)]:
            key = groups.primary_type_key({p: (1,) * k})
            assert prop_cohomology_of_type(key) == {k - 2: p ** (k * (k - 1) // 2)}
            assert section_contribution(key) == k

    def test_large_building_top_certificate(self):
        # above rank five the oracle certifies only the top degree
        key = groups.primary_type_key({2: (1,) * 7})
        assert building_summary(key) == ("top", 5)
        assert max(prop_cohomology_of_type(key)) == 5
        assert section_contribution(key) == 7

    def test_closed_form_matches_building_oracle(self):
        # every section type of the groups of order <= 200 and of six larger
        # groups: full dims where the oracle eliminates, else the top degree
        specs = ["C3xC3xC3xC3", "C2xC2xC4xC4", "C2xC2xC2xC2xC2", "C5xC5xC5",
                 "C7xC7xC7", "C3xC3xC3xC9"]
        corpus = [G for n in range(1, 201) for G in groups.abelian_groups_of_order(n)]
        corpus += [groups.parse_group(spec) for spec in specs]
        keys = {key for G in corpus for key in groups.section_type_keys(G) if key}
        tops = 0
        for key in sorted(keys):
            kind, value = building_summary(key)
            dims = prop_cohomology_of_type(key)
            if kind == "full":
                assert dims == value, key
            else:
                tops += 1
                assert max(dims) == value, key
                assert any(len(part) > FULL_BUILDING_LIMIT for _p, part in key), key
        assert len(keys) == 390 and tops == 3

    def test_contractible_sections(self):
        for p, part in [(2, (2,)), (2, (2, 1)), (3, (2, 2)), (2, (3, 1))]:
            key = groups.primary_type_key({p: part})
            assert section_contribution(key) is None

    def test_ext_dims_section_matches_generic(self, lattice_cache):
        for spec in ["C12", "C2xC4", "C2xC2xC3", "C36"]:
            lat = lattice_cache(spec)
            P = lat.poset
            for x in range(lat.n):
                for y in range(lat.n):
                    assert ext_dims_section(lat, x, y) == ext_dims(P, x, y)

    def test_fast_gldim_matches_generic(self):
        for n in range(1, 37):
            for G in groups.abelian_groups_of_order(n):
                lat = groups.subgroup_lattice(G)
                assert gldim_subgroup_lattice(G) == gldim_incidence(lat.poset), G

    def test_trivial_group(self):
        assert gldim_subgroup_lattice(groups.parse_group("C1")) == 0


def moebius_from(P, k):
    """mu(k, h) for every h, by mu(k, k) = 1, mu(k, h) = -sum_{k <= l < h} mu(k, l)."""
    mu = {}
    above = P.up[k]
    for h in range(P.n):  # a linear extension: P.up[x] only holds x and later
        if above >> h & 1:
            mu[h] = 1 if h == k else -sum(mu[l] for l in mu if P.down[h] >> l & 1)
    return mu


class TestMoebius:
    @pytest.mark.parametrize("spec", ["C2xC2xC2xC2", "C3xC3xC3", "C2xC4xC8",
                                      "C2xC2xC3xC3xC5"])
    def test_euler_characteristic_is_moebius(self, lattice_cache, spec):
        # Rota: sum_n (-1)^n dim Ext^n(S_H, S_K) = mu(K, H), zero off K <= H
        lat = lattice_cache(spec)
        P = lat.poset
        for k in range(lat.n):
            mu = moebius_from(P, k)
            for h in range(lat.n):
                chi = sum((-1) ** n * d for n, d in ext_dims_section(lat, h, k).items())
                assert chi == mu.get(h, 0), (spec, lat.label(h), lat.label(k))


class TestFrattiniRealization:
    def test_examples(self):
        for spec, expected in [("C2xC2", 2), ("C4", 1), ("C12", 2), ("C60", 3)]:
            G = groups.parse_group(spec)
            assert frattini_realization(G) == expected

    def test_wrong_elementary_degree_is_caught(self, monkeypatch):
        # the witness degree is checked against r(G), not against the closed
        # form it is read from, so a wrong top degree cannot agree with itself
        right = izext.prop_cohomology_of_type

        def shifted(key):
            return {d + 1: v for d, v in right(key).items()}

        monkeypatch.setattr(izext, "prop_cohomology_of_type", shifted)
        with pytest.raises(izext.DiscrepancyError) as info:
            frattini_realization(groups.parse_group("C12"))
        assert info.value.details["factors"] == 2
        assert info.value.details["witness_degree"] == 3

    def test_c12_cross_checked_by_table(self, lattice_cache):
        lat = lattice_cache("C12")
        phi = frattini_indices(lat)[lat.top_index()]
        dims = ext_dims(lat.poset, lat.top_index(), phi)
        assert max(dims) == 2 == gldim_incidence(lat.poset)


class TestFrattiniVanishing:
    def test_small_groups_direct(self):
        # every interval I(H, K) with Phi(H) not below K is rationally acyclic
        for n in [4, 8, 9, 12, 16, 18, 24, 27, 36]:
            for G in groups.abelian_groups_of_order(n):
                lat = groups.subgroup_lattice(G)
                P = lat.poset
                phis = frattini_indices(lat)
                for h in range(lat.n):
                    phi = phis[h]
                    for k in range(lat.n):
                        if k == h or not P.leq(k, h) or P.leq(phi, k):
                            continue
                        interval = open_interval(P, h, k)
                        if interval.n == 0:
                            continue
                        coh = qlinalg.reduced_cohomology_dims(
                            posets.order_complex(interval)
                        )
                        assert coh == {}, (G, lat.label(h), lat.label(k))
