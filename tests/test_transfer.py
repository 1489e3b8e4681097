from itertools import combinations

import pytest

from mackeydim import groups, transfer
from mackeydim.groups import BudgetExceededError
from mackeydim.posets import FinitePoset, mask_indices
from mackeydim.transfer import (
    NotDiskLikeError,
    TransferError,
    class_poset,
    close,
    enumerate_disk_like,
    inseparability_classes,
    parse_generator_lines,
    require_disk_like,
    system_of_family,
    validate,
)

from group_oracle import enumerate_subgroups, group_elements, meet, subgroup_elements


def generator_file_text(lattice, pairs):
    """The generator file naming the given arrows, one `gen:` line each."""
    return "".join(f"gen: {lattice.label(k)} -> {lattice.label(h)}\n" for k, h in pairs)


def complete_system(lat):
    top = lat.top_index()
    return close(lat, [(k, top) for k in range(lat.n) if k != top])


def subset_closure_oracle(lat):
    """Disk-like systems by definition: close every subset of {H -> G},
    deduplicate, sort by arrow masks, order by inclusion of the systems."""
    top = lat.top_index()
    proper = [h for h in range(lat.n) if h != top]
    seen = {}
    for r in range(len(proper) + 1):
        for subset in combinations(proper, r):
            T = close(lat, [(k, top) for k in subset])
            seen.setdefault(T.into, T)
    systems = [seen[k] for k in sorted(seen)]
    up = [
        sum(1 << b for b, sb in enumerate(systems) if sb.contains(sa))
        for sa in systems
    ]
    labels = [f"O{i}" for i in range(len(systems))]
    return systems, FinitePoset(len(systems), labels, up, validate=False)


def fixed_point_count_oracle(T, j, l):
    """|(G/L)^J| computed literally from cosets (element-set engine)."""
    lattice = T.lattice
    G = lattice.group
    subs = enumerate_subgroups(G)
    j_elems = subgroup_elements(subs[j])
    l_elems = subgroup_elements(subs[l])
    k = len(G.factors)
    cosets = set()
    for g in group_elements(G):
        coset = frozenset(
            tuple((g[i] + x[i]) % G.moduli[i] for i in range(k)) for x in l_elems
        )
        cosets.add(coset)
    count = 0
    for coset in cosets:
        rep = next(iter(coset))
        fixed = all(
            tuple((rep[i] + a[i]) % G.moduli[i] for i in range(k)) in coset
            for a in j_elems
        )
        if fixed:
            count += 1
    return count


class TestClosure:
    def test_c6_from_bottom(self, lattice_cache):
        lat = lattice_cache("C6")
        T = close(lat, [(lat.index_of_label("C1"), lat.top_index())])
        arrows = {
            (lat.label(k), lat.label(h)) for k, h in T.nontrivial_arrows()
        }
        assert arrows == {("C1", "C2"), ("C1", "C3"), ("C1", "C6")}

    def test_empty_generators_trivial(self, lattice_cache):
        lat = lattice_cache("C12")
        T = close(lat, [])
        assert T.nontrivial_arrows() == []

    def test_c72_derives_third_transfer(self, lattice_cache):
        # restriction along C8 then transitivity forces C2 -> C72
        lat = lattice_cache("2^3*3^2")
        top = lat.top_index()
        T = close(lat, [(lat.index_of_label("C8"), top), (lat.index_of_label("C6"), top)])
        assert T.into[top] >> lat.index_of_label("C2") & 1

    def test_containment_violation(self, lattice_cache):
        lat = lattice_cache("C6")
        with pytest.raises(TransferError):
            close(lat, [(lat.index_of_label("C2"), lat.index_of_label("C3"))])

    def test_idempotent_and_monotone(self, lattice_cache, rng):
        lat = lattice_cache("C12")
        top = lat.top_index()
        proper = [h for h in range(lat.n) if h != top]
        for _ in range(20):
            gens = [(k, top) for k in rng.sample(proper, rng.randint(0, len(proper)))]
            T = close(lat, gens)
            again = close(lat, T.nontrivial_arrows())
            assert again.into == T.into
            bigger = close(lat, gens + [(rng.choice(proper), top)])
            assert bigger.contains(T)

    def test_minimality_against_supersystems(self, lattice_cache, rng):
        # close(gens) is contained in every validated system containing gens
        lat = lattice_cache("C12")
        systems, _ = enumerate_disk_like(lat)
        for _ in range(30):
            T = rng.choice(systems)
            gens = T.nontrivial_arrows()
            if not gens:
                continue
            sub = rng.sample(gens, rng.randint(1, len(gens)))
            closed = close(lat, sub)
            assert T.contains(closed)


class TestMeetTable:
    @pytest.mark.parametrize("spec", ["C4xC12", "C2xC4xC8", "C16xC16"])
    def test_matches_group_meet(self, lattice_cache, spec):
        lat = lattice_cache(spec)
        table = transfer._meet_table(lat)
        subs = enumerate_subgroups(lat.group)
        index = {H: i for i, H in enumerate(subs)}
        for a in range(lat.n):
            for b in range(lat.n):
                assert table[a][b] == index[meet(subs[a], subs[b])]

    def test_not_a_meet_semilattice(self):
        # a, b have no common lower bound; c, d have two maximal ones
        P = FinitePoset.from_covers(["a", "b", "c", "d"], [(0, 2), (0, 3), (1, 2), (1, 3)])

        class Fake:
            poset = P

        with pytest.raises(TransferError, match="not a meet-semilattice"):
            transfer._meet_table(Fake)


class TestValidate:
    def test_complete_ok(self, lattice_cache):
        assert validate(complete_system(lattice_cache("C12"))) is None

    def test_reflexive_only_ok(self, lattice_cache):
        assert validate(close(lattice_cache("C6"), [])) is None

    def test_restriction_violation_reported(self, lattice_cache):
        lat = lattice_cache("C6")
        into = [1 << h for h in range(lat.n)]
        into[lat.top_index()] |= 1 << lat.index_of_label("C1")
        T = transfer.TransferSystem(lat, into)
        report = validate(T)
        assert report is not None and report.kind == "restriction"

    def test_refinement_violation(self, lattice_cache):
        lat = lattice_cache("C6")
        into = [1 << h for h in range(lat.n)]
        into[lat.index_of_label("C2")] |= 1 << lat.index_of_label("C3")
        report = validate(transfer.TransferSystem(lat, into))
        assert report is not None and report.kind == "refinement"


class TestDiskLike:
    def test_complete_and_trivial(self, lattice_cache):
        lat = lattice_cache("C12")
        require_disk_like(complete_system(lat))
        require_disk_like(close(lat, []))

    def test_non_disk_like_on_c4(self, lattice_cache):
        lat = lattice_cache("C4")
        T = close(lat, [(lat.index_of_label("C1"), lat.index_of_label("C2"))])
        with pytest.raises(NotDiskLikeError) as info:
            require_disk_like(T)
        assert str(info.value) == (
            "not disk-like: arrow C1 -> C2 is not generated by the arrows "
            "into the full group"
        )

    def test_invalid_system_rejected(self, lattice_cache):
        lat = lattice_cache("C6")
        into = [1 << h for h in range(lat.n)]
        into[lat.top_index()] |= 1 << lat.index_of_label("C1")
        with pytest.raises(NotDiskLikeError, match="does not validate"):
            require_disk_like(transfer.TransferSystem(lat, into))

    @pytest.mark.parametrize("spec", ["C12", "C2xC4", "C2xC2xC3"])
    def test_closure_of_arrows_into_top(self, lattice_cache, rng, spec):
        # disk-like exactly when closing the arrows into G gives T back
        lat = lattice_cache(spec)
        proper = [(k, h) for h in range(lat.n) for k in range(lat.n)
                  if k != h and lat.poset.leq(k, h)]
        for _ in range(40):
            T = close(lat, rng.sample(proper, rng.randint(0, 3)))
            generated = close(lat, T.generators_into_top())
            if generated.into == T.into:
                require_disk_like(T)
            else:
                with pytest.raises(NotDiskLikeError, match="not disk-like: arrow"):
                    require_disk_like(T)


class TestInseparability:
    def test_c6_two_classes(self, lattice_cache):
        lat = lattice_cache("C6")
        T = close(lat, [(lat.index_of_label("C1"), lat.top_index())])
        part = inseparability_classes(T)
        named = [{lat.label(i) for i in c} for c in part.classes]
        assert named == [{"C1"}, {"C2", "C3", "C6"}]

    def test_complete_all_singletons(self, lattice_cache):
        for spec in ["C6", "C12", "C2xC2"]:
            lat = lattice_cache(spec)
            part = inseparability_classes(complete_system(lat))
            assert all(len(c) == 1 for c in part.classes)

    def test_c12_bottom_generator(self, lattice_cache):
        lat = lattice_cache("C12")
        T = close(lat, [(lat.index_of_label("C1"), lat.top_index())])
        part = inseparability_classes(T)
        sizes = sorted(len(c) for c in part.classes)
        assert sizes == [1, 5]

    def test_c72_paper_families(self, lattice_cache):
        lat = lattice_cache("2^3*3^2")
        top = lat.top_index()
        gens = [("C8",), ("C8", "C6"), ("C8", "C6", "C12")]
        expected = [
            [{"C1", "C2", "C4", "C8"},
             {"C3", "C6", "C9", "C12", "C18", "C24", "C36", "C72"}],
            [{"C1", "C2"}, {"C3", "C6"}, {"C4", "C8"},
             {"C9", "C12", "C18", "C24", "C36", "C72"}],
            [{"C1", "C2"}, {"C3", "C6"}, {"C4"}, {"C8"}, {"C12"},
             {"C9", "C18", "C24", "C36", "C72"}],
        ]
        for labels, classes in zip(gens, expected):
            T = close(lat, [(lat.index_of_label(l), top) for l in labels])
            part = inseparability_classes(T)
            named = [{lat.label(i) for i in c} for c in part.classes]
            assert sorted(map(sorted, named)) == sorted(map(sorted, classes))

    def test_upward_convexity(self, lattice_cache):
        for spec in ["C12", "C2xC2", "C2xC4", "C2xC2xC3"]:
            lat = lattice_cache(spec)
            systems, _ = enumerate_disk_like(lat)
            P = lat.poset
            for T in systems:
                part = inseparability_classes(T)
                for c, members in enumerate(part.classes):
                    rep = part.representatives[c]
                    mask = 0
                    for i in members:
                        mask |= 1 << i
                    for j in members:
                        between = P.up[j] & P.down[rep]
                        assert between & ~mask == 0, "class not upward convex"

    def test_partition_refinement(self, lattice_cache):
        # T1 <= T2 implies classes of T2 refine classes of T1
        for spec in ["C12", "C2xC2xC3"]:
            lat = lattice_cache(spec)
            systems, poset = enumerate_disk_like(lat)
            parts = [inseparability_classes(T) for T in systems]
            for a in range(len(systems)):
                for b in range(len(systems)):
                    if a != b and poset.leq(a, b):
                        coarse = parts[a]
                        fine = parts[b]
                        for fc in fine.classes:
                            assert any(
                                set(fc) <= set(cc) for cc in coarse.classes
                            )

    def test_fixed_point_count_oracle(self, lattice_cache, rng):
        # containment fingerprints match literal |(G/L)^J| coset counts
        for spec in ["C6", "C12", "C2xC2", "C2xC4"]:
            lat = lattice_cache(spec)
            systems, _ = enumerate_disk_like(lat)
            T = systems[len(systems) // 2]
            G_order = lat.group.order
            sub_o = mask_indices(T.into[lat.top_index()])
            for j in range(lat.n):
                for l in sub_o:
                    literal = fixed_point_count_oracle(T, j, l)
                    expected = (
                        G_order // lat.order(l) if lat.poset.leq(j, l) else 0
                    )
                    if not lat.poset.leq(j, l):
                        # abelian: a coset is fixed iff J <= L, so zero
                        assert literal == 0
                    else:
                        assert literal == expected


class TestClassPoset:
    def test_c6_class_of_top(self, lattice_cache):
        lat = lattice_cache("C6")
        T = close(lat, [(lat.index_of_label("C1"), lat.top_index())])
        part = inseparability_classes(T)
        cp = class_poset(part, lat.top_index())
        assert set(cp.labels) == {"C2", "C3", "C6"}
        assert sorted(cp.covers()) == [(0, 2), (1, 2)]

    def test_singleton(self, lattice_cache):
        lat = lattice_cache("C6")
        part = inseparability_classes(complete_system(lat))
        for rep in part.representatives:
            assert class_poset(part, rep).n == 1

    def test_non_representative_rejected(self, lattice_cache):
        lat = lattice_cache("C6")
        T = close(lat, [(lat.index_of_label("C1"), lat.top_index())])
        part = inseparability_classes(T)
        with pytest.raises(TransferError):
            class_poset(part, lat.index_of_label("C2"))

    def test_c72_oprime_class_of_top(self, lattice_cache):
        # the paper's largest class for O': 6 elements, minimal C12 and C9
        lat = lattice_cache("2^3*3^2")
        top = lat.top_index()
        T = close(
            lat,
            [(lat.index_of_label("C8"), top), (lat.index_of_label("C6"), top)],
        )
        part = inseparability_classes(T)
        cp = class_poset(part, top)
        assert set(cp.labels) == {"C9", "C12", "C18", "C24", "C36", "C72"}
        minima = [cp.labels[i] for i in range(cp.n) if cp.down[i] == 1 << i]
        assert sorted(minima) == ["C12", "C9"]


class TestEnumerate:
    def test_cp_two_systems(self, lattice_cache):
        systems, _ = enumerate_disk_like(lattice_cache("C2"))
        assert len(systems) == 2

    def test_cp2_four_systems(self, lattice_cache):
        # closures of the four generator subsets are pairwise distinct
        systems, _ = enumerate_disk_like(lattice_cache("C4"))
        assert len(systems) == 4

    def test_all_disk_like(self, lattice_cache):
        for spec in ["C4", "C6", "C2xC2"]:
            systems, _ = enumerate_disk_like(lattice_cache(spec))
            for T in systems:
                require_disk_like(T)

    @pytest.mark.parametrize("spec,n", [("C8", 3), ("C27", 3), ("C32", 5)])
    def test_cyclic_prime_power_count(self, lattice_cache, spec, n):
        systems, _ = enumerate_disk_like(lattice_cache(spec))
        assert len(systems) == 2**n

    @pytest.mark.parametrize(
        "spec", ["C12", "C2xC4", "C3xC9", "C2xC2xC3", "C2xC8", "C2xC2", "C36"]
    )
    def test_matches_subset_closures(self, lattice_cache, spec):
        lat = lattice_cache(spec)
        assert lat.n <= 12
        systems, poset = enumerate_disk_like(lat)
        expected, expected_poset = subset_closure_oracle(lat)
        assert [T.into for T in systems] == [T.into for T in expected]
        assert poset.labels == expected_poset.labels
        assert poset.up == expected_poset.up
        # the cover-built up-sets equal the subset test on the families
        families = [T.into[lat.top_index()] for T in systems]
        assert list(poset.up) == [
            sum(1 << b for b, fb in enumerate(families) if fa & ~fb == 0)
            for fa in families
        ]

    @pytest.mark.parametrize(
        "spec,count",
        [("C4xC4", 2036), ("C2xC2xC2", 3616), ("C2xC4xC3", 3084), ("C2xC5xC5", 5625)],
    )
    def test_counts_on_large_lattices(self, lattice_cache, spec, count):
        # counts given by closing every subset of arrows into G
        lat = lattice_cache(spec)
        systems, _ = enumerate_disk_like(lat)
        assert len(systems) == count
        assert len({T.into for T in systems}) == count
        for T in systems:
            assert validate(T) is None
            require_disk_like(T)

    def test_into_rows_match_system_of_family(self):
        # the meet-image tables against the loop over the family's members,
        # on every lattice of |G| <= 100 with at most 16 subgroups
        specs = set()
        for order in range(1, 101):
            for G in groups.abelian_groups_of_order(order):
                try:
                    lat = groups.subgroup_lattice(G, max_count=16)
                except BudgetExceededError:
                    continue
                specs.add(G.spec_string())
                systems, _ = enumerate_disk_like(lat)
                meets = transfer._meet_table(lat)
                top = lat.top_index()
                for T in systems:
                    assert T.into == system_of_family(lat, T.into[top], meets).into
        assert {"C4xC4", "C2xC2xC2", "C2xC4xC3", "C2xC5xC5"} <= specs

    def test_budget(self, lattice_cache):
        lat = lattice_cache("C2xC2xC4")
        assert lat.n > 16
        with pytest.raises(BudgetExceededError) as info:
            enumerate_disk_like(lat)
        assert str(info.value) == (
            f"disk-like enumeration budget exceeded: {lat.n} > 16 subgroups"
        )


class TestGeneratorFiles:
    def test_round_trip(self, lattice_cache):
        lat = lattice_cache("C12")
        pairs = [(lat.index_of_label("C4"), lat.top_index())]
        text = generator_file_text(lat, pairs)
        assert parse_generator_lines(text, lat) == pairs

    def test_empty_file(self, lattice_cache):
        assert parse_generator_lines("", lattice_cache("C6")) == []

    def test_bad_label(self, lattice_cache):
        with pytest.raises(groups.GroupError):
            parse_generator_lines("gen: C5 -> C6\n", lattice_cache("C6"))

    def test_bad_syntax(self, lattice_cache):
        with pytest.raises(TransferError):
            parse_generator_lines("C1 -> C6\n", lattice_cache("C6"))
