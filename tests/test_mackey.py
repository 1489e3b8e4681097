import random

import pytest

from mackeydim import groups, izext, mackey, transfer
from mackeydim.mackey import (
    class_dim,
    gldim_mackey,
    gldim_mackey_via_ext,
    gldim_of_family,
    scan_conjectures,
    scan_frattini,
    scan_monotonicity,
)
from mackeydim.transfer import (
    NotDiskLikeError,
    class_poset,
    close,
    enumerate_disk_like,
    inseparability_classes,
)

from group_oracle import (
    count_prime_power_factors,
    enumerate_subgroups,
    frattini_indices,
    quotient_invariants,
)
from section_oracle import literal_pair_scan


def complete_system(lat):
    top = lat.top_index()
    return close(lat, [(k, top) for k in range(lat.n) if k != top])


def bottom_system(lat):
    return close(lat, [(lat.bottom_index(), lat.top_index())])


def class_route(T):
    """gldim_mackey's rows and height bound by the fingerprint classes,
    class_dim (both formulations) and the class-poset heights."""
    part = inseparability_classes(T)
    rows = [
        (rep, members, mackey._minimal_members(T.lattice, members), class_dim(part, rep))
        for rep, members in zip(part.representatives, part.classes)
    ]
    height = max(class_poset(part, rep).height() for rep in part.representatives)
    return rows, height


class TestClassDim:
    def test_c12_class_of_top(self, lattice_cache):
        lat = lattice_cache("C12")
        T = bottom_system(lat)
        part = inseparability_classes(T)
        top = lat.top_index()
        assert class_dim(part, top) == 2
        minimal = mackey._minimal_members(
            lat, part.classes[part.class_of_representative(top)]
        )
        assert sorted(lat.label(i) for i in minimal) == ["C2", "C3"]

    def test_trivial_class_zero(self, lattice_cache):
        lat = lattice_cache("C12")
        T = bottom_system(lat)
        part = inseparability_classes(T)
        assert class_dim(part, lat.bottom_index()) == 0

    def test_singletons_zero(self, lattice_cache):
        lat = lattice_cache("C6")
        part = inseparability_classes(complete_system(lat))
        for rep in part.representatives:
            assert class_dim(part, rep) == 0


class TestFactorCount:
    def test_matches_smith_form(self, lattice_cache):
        # r(H/K) read off the section type against one SNF per pair
        for spec in ["C12", "C2xC4xC3", "C2xC2xC2xC3", "C4xC12", "C3xC9", "C2xC2xC4"]:
            lat = lattice_cache(spec)
            subs = enumerate_subgroups(lat.group)
            for h in range(lat.n):
                for k in range(lat.n):
                    if lat.poset.leq(k, h):
                        want = count_prime_power_factors(quotient_invariants(subs[h], subs[k]))
                        assert mackey._factor_count(lat, h, k) == want, (spec, h, k)


class TestGldimMackey:
    def test_complete_zero(self, lattice_cache):
        for spec in ["C6", "C12", "C2xC2", "C2xC4"]:
            lat = lattice_cache(spec)
            G = lat.group
            assert gldim_mackey(G, complete_system(lat)).gldim == 0

    def test_trivial_attains_factor_count(self, lattice_cache):
        for spec in ["C6", "C12", "C2xC2", "C30", "C2xC2xC3"]:
            lat = lattice_cache(spec)
            G = lat.group
            assert gldim_mackey(G, close(lat, [])).gldim == len(G.factors)

    def test_c12_bottom_generator(self, lattice_cache):
        lat = lattice_cache("C12")
        report = gldim_mackey(lat.group, bottom_system(lat))
        assert report.gldim == 2
        assert report.gldim <= report.height_bound

    def test_c72_family(self, lattice_cache):
        lat = lattice_cache("2^3*3^2")
        top = lat.top_index()
        i = lat.index_of_label
        cases = [
            ([("C8")], 2),
            (["C8", "C6"], 2),
            (["C8", "C6", "C12"], 1),
        ]
        for labels, expected in cases:
            T = close(lat, [(i(l), top) for l in labels])
            assert gldim_mackey(lat.group, T).gldim == expected

    def test_not_disk_like_rejected(self, lattice_cache):
        lat = lattice_cache("C4")
        T = close(lat, [(lat.index_of_label("C1"), lat.index_of_label("C2"))])
        with pytest.raises(NotDiskLikeError):
            gldim_mackey(lat.group, T)

    def test_report_json_shape(self, lattice_cache):
        lat = lattice_cache("C12")
        report = gldim_mackey(lat.group, bottom_system(lat))
        payload = report.to_json_dict()
        assert payload["schema"] == 1
        assert payload["gldim"] == 2
        assert {row["representative"] for row in payload["classes"]} == {"C1", "C12"}


class TestViaExt:
    def test_complete(self, lattice_cache):
        lat = lattice_cache("C6")
        assert gldim_mackey_via_ext(lat.group, complete_system(lat)) == 0

    def test_trivial_c6(self, lattice_cache):
        lat = lattice_cache("C6")
        assert gldim_mackey_via_ext(lat.group, close(lat, [])) == 2

    def test_c72_oprime2(self, lattice_cache):
        lat = lattice_cache("2^3*3^2")
        top = lat.top_index()
        i = lat.index_of_label
        T = close(lat, [(i("C8"), top), (i("C6"), top), (i("C12"), top)])
        assert gldim_mackey_via_ext(lat.group, T) == 1
        # oracle cross-check of every class poset
        from mackeydim import oracle

        part = inseparability_classes(T)
        dims = [
            oracle.gldim_oracle(transfer.class_poset(part, rep))
            for rep in part.representatives
        ]
        assert max(dims) == 1

    def test_two_routes_across_all_disk_like(self, lattice_cache):
        for spec in ["C12", "C2xC2", "C2xC4", "C3xC9", "C2xC2xC3"]:
            lat = lattice_cache(spec)
            systems, _ = enumerate_disk_like(lat)
            for T in systems:
                assert gldim_mackey_via_ext(lat.group, T) == gldim_mackey(
                    lat.group, T
                ).gldim


class TestScans:
    def test_monotonicity_cp(self, lattice_cache):
        report = scan_monotonicity(groups.parse_group("C2"))
        assert report["systems"] == 2
        assert report["violations"] == []
        assert report["max_gldim"] == 1

    def test_monotonicity_c6(self):
        report = scan_monotonicity(groups.parse_group("C6"))
        assert report["violations"] == []
        assert report["max_gldim"] == 2
        assert 0 in report["gldims"]

    def test_monotonicity_cp2_max_one(self):
        report = scan_monotonicity(groups.parse_group("C4"))
        assert report["violations"] == []
        assert report["max_gldim"] == 1

    def test_monotonicity_never_builds_the_inclusion_down(self, monkeypatch):
        # the scan walks the inclusion poset upwards only
        kept = []

        def enumerate_and_keep(lattice):
            systems, poset = enumerate_disk_like(lattice)
            kept.append(poset)
            return systems, poset

        monkeypatch.setattr(transfer, "enumerate_disk_like", enumerate_and_keep)
        for spec in ["C6", "C2xC4", "C2xC2xC2"]:
            scan_monotonicity(groups.parse_group(spec))
        assert len(kept) == 3
        assert all(P._down is None for P in kept)

    def test_monotonicity_reports_every_violation(self, lattice_cache, monkeypatch):
        # a gldim that grows with the family makes every inclusion a violation
        monkeypatch.setattr(
            mackey, "gldim_of_family", lambda lattice, family, counts: family.bit_count()
        )
        lat = lattice_cache("C2xC4")
        report = scan_monotonicity(lat.group)
        systems, poset = enumerate_disk_like(lat)
        top = lat.top_index()

        def names(T):
            return [f"{lat.label(k)}->{lat.label(h)}" for k, h in T.nontrivial_arrows()]

        expected = [
            {"smaller": names(systems[a]), "larger": names(systems[b]),
             "gldim_smaller": systems[a].into[top].bit_count(),
             "gldim_larger": systems[b].into[top].bit_count()}
            for a in range(len(systems)) for b in range(len(systems))
            if a != b and poset.leq(a, b)
        ]
        assert report["inclusion_pairs"] == len(expected) > 0
        assert report["violations"] == expected

    def test_frattini_c4(self):
        report = scan_frattini(groups.parse_group("C4"))
        assert report["realization"]["degree"] == 1

    def test_frattini_klein(self):
        report = scan_frattini(groups.parse_group("2^1*2^1"))
        assert report["realization"]["degree"] == 2
        assert report["pair_scan"]["eligible_pairs"] == 0

    def test_frattini_c60(self, lattice_cache):
        report = scan_frattini(groups.parse_group("C60"))
        assert report["realization"]["degree"] == 3
        assert report["gldim"] == 3
        # verify through the full Ext table: top degree at (G, Phi G) is 3
        lat = lattice_cache("C60")
        phi = frattini_indices(lat)[lat.top_index()]
        assert lat.label(phi) == "C2"
        dims = izext.ext_dims(lat.poset, lat.top_index(), phi)
        assert max(dims) == 3

    def test_frattini_pairwise_mode(self):
        report = scan_frattini(groups.parse_group("C2xC4"))
        assert report["pair_scan"]["mode"] == "pairwise"
        assert report["pair_scan"]["eligible_pairs"] > 0

    def test_pair_scan_matches_the_literal_loop(self):
        # the closed-form counts and per-type checks against the per-pair
        # loop on every abelian group of order <= 200, in all four modes
        modes = set()
        for n in range(1, 201):
            for G in groups.abelian_groups_of_order(n):
                got = mackey._pair_scan(G)
                assert got == literal_pair_scan(G), G
                modes.add(got["mode"])
        assert modes == {"skipped-squarefree-exponent", "pairwise",
                         "pairwise-count-only", "type-level-only"}

    def test_pair_counts_are_products_over_primes(self, lattice_cache):
        lat = lattice_cache("C4xC12")
        P = lat.poset
        comparable = sum(row.bit_count() for row in P.down)
        phis = frattini_indices(lat)
        frattini = sum((P.down[h] & P.up[phis[h]]).bit_count() for h in range(lat.n))
        assert lat.pair_counts() == (comparable, frattini)

    def test_conjectures_witness_table(self):
        report = scan_conjectures(groups.parse_group("C12"))
        assert report["frattini_realizes_gldim"] is True
        assert report["monotonicity_violations"] == []
        degrees = {
            row["subgroup_type"]: row["frattini_interval_degree"]
            for row in report["frattini_witnesses"]
        }
        assert degrees["C4xC3"] == 2 and degrees["C1"] == 0


class TestClosedForm:
    def test_matches_class_route_on_small_lattices(self, small_lattices):
        # every disk-like system of the acceptance-05 corpus
        checked = 0
        for lat in small_lattices:
            top = lat.top_index()
            counts = {}
            systems, _ = enumerate_disk_like(lat)
            for T in systems:
                family = T.into[top]
                part = inseparability_classes(T)
                tops = mackey._class_tops(lat, family)
                fibres = {}
                for j, c in enumerate(tops):
                    fibres.setdefault(c, []).append(j)
                assert sorted(fibres) == part.representatives
                assert [fibres[r] for r in sorted(fibres)] == part.classes
                rows, height = class_route(T)
                gldim = max(dim for *_rest, dim in rows)
                assert gldim_of_family(lat, family, counts) == gldim <= height
                assert gldim_of_family(lat, family, {}) == gldim
                checked += 1
        assert checked == 9009

    @pytest.mark.parametrize(
        "spec", ["C4xC12", "C2xC2xC4", "C2xC2xC2xC3", "C16xC16"]
    )
    def test_gldim_mackey_matches_class_route(self, lattice_cache, spec):
        lat = lattice_cache(spec)
        top = lat.top_index()
        proper = list(range(lat.n - 1))
        rng = random.Random(f"gens/{spec}")
        for _ in range(40):
            gens = rng.sample(proper, rng.randint(1, 4))
            T = close(lat, [(k, top) for k in gens])
            report = gldim_mackey(lat.group, T)
            rows, height = class_route(T)
            assert [(r.representative, r.members, r.minimal, r.dim)
                    for r in report.rows] == rows
            assert report.height_bound == height
            assert report.gldim == max(dim for *_rest, dim in rows)
            assert report.gldim == gldim_of_family(lat, T.into[top], {})
