import random
from pathlib import Path

import pytest

from mackeydim import groups
from mackeydim.cli import random_poset  # noqa: F401  (re-exported to the tests)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def lattice_cache():
    cache = {}

    def get(spec):
        if spec not in cache:
            cache[spec] = groups.subgroup_lattice(groups.parse_group(spec))
        return cache[spec]

    return get


@pytest.fixture(scope="session")
def small_lattices():
    """The acceptance-05 corpus: lattices of |G| <= 100 with <= 12 subgroups."""
    out = []
    for n in range(1, 101):
        for G in groups.abelian_groups_of_order(n):
            try:
                out.append(groups.subgroup_lattice(G, max_count=12))
            except groups.BudgetExceededError:
                pass
    return out


@pytest.fixture
def rng():
    return random.Random(20260808)
