import random
from functools import lru_cache

import pytest

from mackeydim import groups
from mackeydim.groups import (
    AbelianGroup,
    BudgetExceededError,
    ContainmentError,
    GroupError,
    ParseError,
    abelian_groups_of_order,
    parse_group,
    section_type_keys,
    subgroup_lattice,
)

from group_oracle import (
    Subgroup,
    contains_lattice,
    count_prime_power_factors,
    element_lattice,
    elementary_blocks,
    enumerate_subgroups,
    frattini_indices,
    full_subgroup,
    group_from_primary_type,
    iso_name,
    join,
    meet,
    quotient_invariants,
    snf_labels,
    subgroup_elements,
    subgroup_from_columns,
    subgroup_from_elements,
    trivial_subgroup,
)
from section_oracle import frattini_closed_form, quotient_type_key
from poset_oracle import transpose


class TestParse:
    def test_trivial(self):
        G = parse_group("C1")
        assert G.factors == () and G.order == 1

    def test_c12_primary(self):
        assert parse_group("C12").factors == ((2, 2), (3, 1))

    def test_klein(self):
        assert parse_group("C2xC2").factors == ((2, 1), (2, 1))

    def test_prime_power_grammar(self):
        assert parse_group("2^2*3").factors == ((2, 2), (3, 1))
        assert parse_group("2^3*3^2").order == 72

    def test_case_insensitive(self):
        assert parse_group("c6") == parse_group("C2XC3")

    @pytest.mark.parametrize("bad", ["C0", "", "Cx", "4^2", "1^2", "2^0", "C2+C2"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_group(bad)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


class TestEnumeration:
    def test_cyclic_subgroup_counts_match_divisors(self):
        # oracle check over all cyclic groups of order <= 1000
        for n in range(1, 1001):
            G = AbelianGroup(groups._factorize(n))
            assert len(enumerate_subgroups(G)) == divisor_count(n), n

    def test_klein_has_five(self):
        assert len(enumerate_subgroups(parse_group("C2xC2"))) == 5

    def test_elementary_gaussian_counts(self):
        for p, k, expected in [(2, 3, 16), (2, 4, 67), (3, 3, 28), (5, 2, 8)]:
            G = AbelianGroup([(p, 1)] * k)
            assert len(enumerate_subgroups(G)) == expected

    def test_element_set_cross_check(self):
        # every enumerated subgroup equals the closure of its columns, and
        # distinct subgroups have distinct element sets (order <= 200 sample)
        for spec in ["C12", "C2xC4", "C3xC9", "C2xC2xC2", "C36"]:
            G = parse_group(spec)
            subs = enumerate_subgroups(G)
            seen = set()
            for H in subs:
                elems = subgroup_elements(H)
                assert len(elems) == H.order
                assert elems not in seen
                seen.add(elems)
                assert subgroup_from_elements(G, elems) == H

    @pytest.mark.parametrize("spec", ["C2048", "C3xC729"])
    def test_element_order_matches_contains(self, spec):
        # above order 2000 the lattice order still comes from element masks
        G = parse_group(spec)
        lat = subgroup_lattice(G)
        subs = enumerate_subgroups(G)
        for i, H in enumerate(subs):
            for j, K in enumerate(subs):
                assert lat.poset.leq(i, j) == K.contains(H), (spec, i, j)

    def test_budget_error(self):
        with pytest.raises(BudgetExceededError):
            enumerate_subgroups(parse_group("C2xC2xC2"), max_count=4)
        with pytest.raises(BudgetExceededError):
            enumerate_subgroups(AbelianGroup([(2, 20)]), max_order=1000)

    def test_deterministic_order(self):
        a = enumerate_subgroups(parse_group("C12"))
        b = enumerate_subgroups(parse_group("C12"))
        assert a == b
        orders = [s.order for s in a]
        assert orders == sorted(orders)

    def test_top_and_bottom_indices(self, small_lattices):
        lattices = small_lattices + [subgroup_lattice(parse_group("C2048"))]
        for lat in lattices:
            G = lat.group
            subs = enumerate_subgroups(G)
            assert lat.top_index() == subs.index(full_subgroup(G)), G
            assert lat.bottom_index() == subs.index(trivial_subgroup(G)), G


def _lattice_rows(lat):
    return ([lat.order(i) for i in range(lat.n)],
            [s.cols for s in enumerate_subgroups(lat.group)],
            list(lat.poset.labels), list(lat.poset.up))


def _oracle_rows(G):
    subs, labels, up = element_lattice(G)
    return [s.order for s in subs], [s.cols for s in subs], labels, up


PRODUCT_EXTRA_SPECS = ["C2xC2xC2xC2xC2", "C3xC3xC3xC3", "C2xC2xC4xC4", "C4xC12",
                       "C16xC16", "C2xC2xC2xC3"]


class TestProductLattice:
    """Sub(G) as the product of the primary tables against the direct route:
    every subgroup of G, an element mask each, n^2 mask tests, SNF labels."""

    def test_matches_element_oracle_up_to_order_200(self):
        corpus = [G for n in range(1, 201) for G in abelian_groups_of_order(n)]
        corpus += [parse_group(spec) for spec in PRODUCT_EXTRA_SPECS]
        over_budget = []
        for G in corpus:
            try:
                lat = subgroup_lattice(G)
            except BudgetExceededError:
                with pytest.raises(BudgetExceededError):
                    element_lattice(G)
                over_budget.append(G.spec_string())
                continue
            assert _lattice_rows(lat) == _oracle_rows(G), G
        assert over_budget == ["C2xC2xC2xC2xC2xC2xC2"]

    @pytest.mark.parametrize("spec", ["C2xC4096", "C2xC4096xC3", "C8xC1024"])
    def test_hnf_route_matches_contains(self, spec):
        # the 2-part has more than 4096 elements, so its table is ordered by
        # HNF membership; the oracle is Subgroup.contains on all of G
        G = parse_group(spec)
        lat = subgroup_lattice(G)
        subs = sorted(enumerate_subgroups(G), key=Subgroup.sort_key)
        assert enumerate_subgroups(G) == subs
        assert [lat.order(i) for i in range(lat.n)] == [s.order for s in subs]
        assert list(lat.poset.up) == contains_lattice(subs), spec
        assert list(lat.poset.labels) == snf_labels(subs), spec

    def test_p_group_poset_takes_the_table_down_masks(self):
        # a p-group's poset is handed its table's down masks, which must be
        # the transpose of its up masks
        checked = 0
        for n in range(2, 201):
            for G in abelian_groups_of_order(n):
                if len(G.primary_type()) != 1:
                    continue
                try:
                    P = subgroup_lattice(G).poset
                except BudgetExceededError:
                    continue
                assert P._down is not None, G
                assert P.down == transpose(P.up), G
                checked += 1
        assert checked > 60

    def test_two_table_routes_agree(self):
        # element sets and HNF membership give the same up-masks on every
        # primary part of the corpus with at most 700 subgroups
        parts = {(p, tuple(sorted(part)))
                 for n in range(2, 201) for G in abelian_groups_of_order(n)
                 for p, part in G.primary_type().items()}
        checked = 0
        for p, exps in sorted(parts):
            blocks = groups._prime_block_bases(p, exps)
            if len(blocks) > 700:
                continue
            sizes = groups._PrimeTable(p, exps, blocks).sizes
            moduli = [p**e for e in exps]
            assert groups._element_up_masks(moduli, blocks) == \
                groups._span_up_masks(sizes, blocks), (p, exps)
            checked += 1
        assert checked > 90

    def test_budget_checked_before_any_table(self, monkeypatch):
        built = []
        monkeypatch.setattr(groups, "_PrimeTable", lambda *args: built.append(args))
        G = AbelianGroup([(2, 1)] * 7)
        with pytest.raises(BudgetExceededError) as info:
            subgroup_lattice(G, max_count=3000)
        assert built == [] and info.value.found == 29212

    @pytest.mark.parametrize("factors, found", [
        ([(2, 1)] * 5 + [(2, 2)], 5276),
        ([(2, 1)] * 5 + [(2, 2), (3, 1)], 2 * 5276),
    ])
    def test_budget_checked_before_any_block(self, monkeypatch, factors, found):
        built = []
        monkeypatch.setattr(groups, "_prime_block_bases", lambda *args: built.append(args))
        with pytest.raises(BudgetExceededError) as info:
            subgroup_lattice(AbelianGroup(factors), max_count=3000)
        assert built == [] and info.value.found == found

    def test_subgroup_count_closed_form(self):
        # Butler's sum over mu <= lambda against the enumerated blocks, on
        # every primary part of the corpus and two refused ones
        parts = {(p, tuple(sorted(part)))
                 for n in range(2, 201) for G in abelian_groups_of_order(n)
                 for p, part in G.primary_type().items()}
        parts |= {(2, (1,) * 7), (2, (1, 1, 1, 1, 1, 2))}
        for p, exps in sorted(parts):
            assert groups._subgroup_count(p, exps) == \
                len(groups._prime_block_bases(p, exps)), (p, exps)
        assert groups._subgroup_count(2, (1,) * 7) == 29212
        assert groups._subgroup_count(2, (1, 1, 1, 1, 1, 2)) == 5276

    def test_elementary_blocks_match_echelon_bases(self):
        # the recursive enumerator against one HNF per subspace of F_p^m, on
        # every elementary (C_p)^m of at most 4096 elements whose subgroup
        # count is within the lattice's default budget
        checked = 0
        for p in filter(groups._is_prime, range(2, 4097)):
            m = 1
            while p**m <= 4096 and groups._subgroup_count(p, (1,) * m) <= 6000:
                assert list(groups._prime_block_bases(p, (1,) * m)) == \
                    elementary_blocks(p, m), (p, m)
                checked += 1
                m += 1
        assert checked == 595

    def test_type_names(self):
        assert groups.type_name(()) == "C1"
        assert groups.type_name(((2, (1, 1)), (3, (1,)))) == "C2xC6"
        assert groups.type_name(((2, (2,)), (3, (1,)))) == "C12"
        assert groups.type_name(((2, (3, 1)), (5, (1, 1)))) == "C10xC40"


class TestCanonicality:
    def test_random_generating_sets(self):
        rng = random.Random(7)
        for spec in ["C12", "C2xC4", "C3xC3", "C2xC2xC3", "C8xC2"]:
            G = parse_group(spec)
            for _ in range(40):
                k = len(G.factors)
                cols = [
                    [rng.randrange(G.moduli[i]) for i in range(k)]
                    for _ in range(rng.randint(1, 3))
                ]
                H = subgroup_from_columns(G, cols)
                # closure oracle: same element set -> bitwise equal basis
                H2 = subgroup_from_elements(G, subgroup_elements(H))
                assert H.cols == H2.cols

    def test_hash_and_equality(self):
        G = parse_group("C6")
        a = subgroup_from_columns(G, [[1, 0]])
        b = subgroup_from_columns(G, [[1, 0], [1, 0]])
        assert a == b and hash(a) == hash(b)


class TestLatticeOps:
    def test_meet_join_coprime(self, lattice_cache):
        lat = lattice_cache("C6")
        subs = enumerate_subgroups(lat.group)
        c2 = subs[lat.index_of_label("C2")]
        c3 = subs[lat.index_of_label("C3")]
        assert meet(c2, c3).order == 1
        assert join(c2, c3).order == 6

    def test_idempotence(self, lattice_cache):
        for H in enumerate_subgroups(parse_group("C12")):
            assert meet(H, H) == H and join(H, H) == H

    def test_lattice_laws(self):
        for spec in ["C12", "C2xC4", "C2xC2xC3"]:
            subs = enumerate_subgroups(parse_group(spec))
            rng = random.Random(1)
            sample = [
                (rng.choice(subs), rng.choice(subs), rng.choice(subs))
                for _ in range(25)
            ]
            for a, b, c in sample:
                assert meet(a, b) == meet(b, a)
                assert join(a, b) == join(b, a)
                assert meet(a, meet(b, c)) == meet(meet(a, b), c)
                assert join(a, join(b, c)) == join(join(a, b), c)
                assert join(a, meet(a, b)) == a
                assert meet(a, join(a, b)) == a

    def test_order_product_law_cyclic(self):
        # |H meet K| * |H join K| = |H| * |K| in cyclic ambient groups
        for n in [12, 30, 36, 100]:
            subs = enumerate_subgroups(AbelianGroup(groups._factorize(n)))
            for H in subs:
                for K in subs:
                    assert (
                        meet(H, K).order * join(H, K).order == H.order * K.order
                    )

    @pytest.mark.parametrize("spec", ["C4xC12", "C2xC4xC8", "C3xC9"])
    def test_meet_is_intersection(self, spec):
        # these lattices give non-unit pivots, so the kernel's xgcd step runs;
        # a kernel spanning only a finite-index sublattice makes meets too small
        subs = enumerate_subgroups(parse_group(spec))
        elements = [subgroup_elements(H) for H in subs]
        for H, eh in zip(subs, elements):
            for K, ek in zip(subs, elements):
                assert subgroup_elements(meet(H, K)) == eh & ek, (H, K)

    def test_ambient_mismatch(self):
        a = trivial_subgroup(parse_group("C4"))
        b = trivial_subgroup(parse_group("C6"))
        with pytest.raises(GroupError):
            meet(a, b)


class TestQuotients:
    def test_c12_examples(self, lattice_cache):
        lat = lattice_cache("C12")
        G = full_subgroup(lat.group)
        subs = enumerate_subgroups(lat.group)
        cq = subs[lat.index_of_label("C3")]
        cp = subs[lat.index_of_label("C2")]
        assert quotient_invariants(G, cq) == [4]
        assert quotient_invariants(G, cp) == [6]

    def test_trivial_quotient(self, lattice_cache):
        for H in enumerate_subgroups(parse_group("C12")):
            assert quotient_invariants(H, H) == []

    def test_containment_violation(self, lattice_cache):
        lat = lattice_cache("C6")
        subs = enumerate_subgroups(lat.group)
        c2 = subs[lat.index_of_label("C2")]
        c3 = subs[lat.index_of_label("C3")]
        with pytest.raises(ContainmentError):
            quotient_invariants(c2, c3)

    def test_group_invariants_from_trivial(self):
        for spec, expected in [("C12", [12]), ("C2xC4", [2, 4]), ("C2xC2", [2, 2])]:
            G = parse_group(spec)
            assert quotient_invariants(full_subgroup(G), trivial_subgroup(G)) == expected

    def test_count_matches_primary_length(self):
        for n in range(1, 101):
            for G in abelian_groups_of_order(n):
                invs = quotient_invariants(full_subgroup(G), trivial_subgroup(G))
                assert count_prime_power_factors(invs) == len(G.factors)


class TestCountPPF:
    def test_examples(self):
        assert count_prime_power_factors([6]) == 2
        assert count_prime_power_factors([]) == 0
        assert count_prime_power_factors([2, 2]) == 2

    def test_rejects_units(self):
        with pytest.raises(GroupError):
            count_prime_power_factors([1])


READER_SPECS = ["C2xC2xC2xC4xC4", "C2xC2xC2xC2xC8", "C2xC2xC2xC2xC4xC3",
                "C2xC4096"]


@lru_cache(maxsize=None)
def reader_lattices():
    """Every group of order <= 64, three larger 2-groups and one past the
    element-engine gate (|G| > 4096)."""
    corpus = [G for n in range(1, 65) for G in abelian_groups_of_order(n)]
    corpus += [parse_group(spec) for spec in READER_SPECS]
    return tuple(subgroup_lattice(G) for G in corpus)


class TestFrattini:
    def test_c4(self, lattice_cache):
        lat = lattice_cache("C12")
        c4 = lat.index_of_label("C4")
        assert lat.label(frattini_indices(lat)[c4]) == "C2"

    def test_klein_trivial(self, lattice_cache):
        lat = lattice_cache("C2xC2")
        assert frattini_indices(lat)[lat.top_index()] == lat.bottom_index()

    def test_c12_brute_force(self, lattice_cache):
        lat = lattice_cache("C12")
        # brute force: intersect the maximal subgroups directly
        P = lat.poset
        top = lat.top_index()
        maximal = [
            i
            for i in range(lat.n)
            if i != top and P.leq(i, top)
            and all(not (i != j != top and P.leq(i, j) and P.leq(j, top)) for j in range(lat.n))
        ]
        subs = enumerate_subgroups(lat.group)
        acc = subs[maximal[0]]
        for j in maximal[1:]:
            acc = meet(acc, subs[j])
        assert frattini_indices(lat)[top] == subs.index(acc)
        assert lat.label(frattini_indices(lat)[top]) == "C2"

    def test_trivial_subgroup_fixed(self, lattice_cache):
        lat = lattice_cache("C6")
        assert frattini_indices(lat)[lat.bottom_index()] == lat.bottom_index()

    def test_subgroup_level_wrapper(self, lattice_cache):
        lat = lattice_cache("C12")
        subs = enumerate_subgroups(lat.group)
        assert iso_name(subs[frattini_indices(lat)[lat.index_of_label("C4")]]) == "C2"

    def test_closed_form_agreement(self):
        for n in [4, 8, 12, 16, 24, 36, 48, 60, 72, 100, 144, 196, 200]:
            for G in abelian_groups_of_order(n):
                lat = subgroup_lattice(G)
                via_lattice = enumerate_subgroups(G)[frattini_indices(lat)[lat.top_index()]]
                assert frattini_closed_form(full_subgroup(G)) == via_lattice

    def test_closed_form_agreement_all_subgroups(self):
        # the per-subgroup closed form Phi(H) = intersection of pH matches the
        # lattice route (meet of the prime-index subgroups of H) everywhere
        for lat in reader_lattices():
            subs = enumerate_subgroups(lat.group)
            index = {H: i for i, H in enumerate(subs)}
            phis = frattini_indices(lat)
            for h, H in enumerate(subs):
                phi = frattini_closed_form(H)
                assert phis[h] == index[phi], (lat.group, lat.label(h))


# Brute-force type oracle: every subgroup and every quotient, one SNF each.


@lru_cache(maxsize=None)
def brute_subgroup_keys(G):
    bottom = trivial_subgroup(G)
    return frozenset(quotient_type_key(H, bottom) for H in enumerate_subgroups(G))


@lru_cache(maxsize=None)
def brute_quotient_keys(G):
    top = full_subgroup(G)
    return frozenset(quotient_type_key(top, K) for K in enumerate_subgroups(G))


def brute_section_keys(G):
    out = set()
    for key in brute_subgroup_keys(G):
        out |= brute_quotient_keys(group_from_primary_type(dict(key)))
    return out


def small_primary_types(bound):
    """Every (p, lambda) with lambda nonempty and p^|lambda| <= bound."""
    out = []
    for p in range(2, bound + 1):
        if not all(p % d for d in range(2, p)):
            continue
        n = 1
        while p**n <= bound:
            out += [(p, part) for part in groups.partitions(n)]
            n += 1
    return out


class TestSectionTypes:
    def test_sections_cover_all_quotients(self, lattice_cache):
        # literal sections of C12 computed pairwise vs the type engine
        lat = lattice_cache("C12")
        subs = enumerate_subgroups(lat.group)
        keys = {
            quotient_type_key(subs[i], subs[j])
            for i in range(lat.n)
            for j in range(lat.n)
            if lat.poset.leq(j, i)
        }
        assert keys == set(section_type_keys(lat.group))

    def test_pairwise_vs_type_engine(self):
        for spec in ["C1", "C2xC4", "C2xC2xC2", "C3xC9", "C8", "C2xC2xC3"]:
            G = parse_group(spec)
            lat = subgroup_lattice(G)
            subs = enumerate_subgroups(G)
            literal = {
                quotient_type_key(subs[i], subs[j])
                for i in range(lat.n)
                for j in range(lat.n)
                if lat.poset.leq(j, i)
            }
            assert literal == set(section_type_keys(G))

    def test_closed_form_matches_brute_force(self):
        # subgroup, quotient and section types of the p-group of type lambda
        # are all the partitions mu contained in lambda
        cases = small_primary_types(81)
        assert len(cases) == 64
        for p, part in cases:
            G = group_from_primary_type({p: part})
            closed = section_type_keys(G)
            assert closed == sorted(set(closed)), (p, part)
            assert set(closed) == brute_subgroup_keys(G), (p, part)
            assert set(closed) == brute_quotient_keys(G), (p, part)
            assert set(closed) == brute_section_keys(G), (p, part)


    def test_section_type_matches_smith_form(self):
        for lat in reader_lattices():
            subs = enumerate_subgroups(lat.group)
            for h in range(lat.n):
                m = lat.poset.down[h]
                while m:
                    k = (m & -m).bit_length() - 1
                    m &= m - 1
                    assert lat.section_type(h, k) == quotient_type_key(subs[h], subs[k]), (
                        lat.group, lat.label(h), lat.label(k))

    def test_section_type_requires_containment(self, lattice_cache):
        lat = lattice_cache("C6")
        with pytest.raises(ContainmentError):
            lat.section_type(lat.index_of_label("C2"), lat.index_of_label("C3"))


class TestGroupsOfOrder:
    def test_counts(self):
        assert len(abelian_groups_of_order(1)) == 1
        assert len(abelian_groups_of_order(8)) == 3
        assert len(abelian_groups_of_order(16)) == 5
        assert len(abelian_groups_of_order(36)) == 4
