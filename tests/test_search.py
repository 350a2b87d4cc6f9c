"""The memoised searches charge their budgets the nodes of the plain walk.

Each reference below is a plain depth-first walk with no memo, written
from the definitions: it counts one node per call, as the budget does.
"""

import sys
from itertools import product

import pytest

from conftest import small_partitions

from aztec_triangles import domains, paths, search, sequences, tableaux
from aztec_triangles.errors import CapExceeded
from aztec_triangles.partitions import (
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    normalize,
    pad,
)
from aztec_triangles.search import SearchBudget
from aztec_triangles.tableaux import enumerate_tableaux


def test_spend_adds_one(monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "2")
    budget = SearchBudget("chain")
    budget.spend()
    budget.spend()
    assert budget.used == 2
    with pytest.raises(CapExceeded) as info:
        budget.spend()
    assert str(info.value) == "chain search exceeded cap of 2 nodes"


def test_spend_in_bulk_raises_on_the_call_past_the_cap(monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "10")
    budget = SearchBudget("tiling")
    budget.spend(4)
    budget.spend(6)
    assert budget.used == 10
    with pytest.raises(CapExceeded) as info:
        budget.spend(3)
    assert str(info.value) == "tiling search exceeded cap of 10 nodes"
    assert budget.used == 13


def tiling_nodes(domain):
    """Exact cover over the first uncovered cell, in (d, p) order."""
    cells = domain.sorted_cells()
    covered = set()

    def place():
        nodes = 1
        free = [cell for cell in cells if cell not in covered]
        if not free:
            return nodes
        d, p = free[0]
        for other in ((d + 1, p + 1), (d + 1, p)):
            if other in domain.cells and other not in covered:
                covered.update({(d, p), other})
                nodes += place()
                covered.difference_update({(d, p), other})
        return nodes

    return place()


def chain_nodes(mu, case):
    """One node per chain prefix: entries inside mu, strips alternating
    horizontal and vertical, entry i with at most ceil(i/2) parts, and the
    last entry mu."""
    ell = 2 * len(mu) + (case == 2)
    target = normalize(mu)
    inside = {
        normalize(nu)
        for nu in product(*(range(m + 1) for m in mu))
        if is_partition(nu)
    }

    def walk(lam, i):  # lam is entry i - 1
        nodes = 1
        if i == ell:
            return nodes
        strip = is_horizontal_strip if i % 2 == 1 else is_vertical_strip
        for nu in inside:
            if len(nu) > (i + 1) // 2 or not strip(nu, lam):
                continue
            if i < ell - 1 or nu == target:
                nodes += walk(nu, i + 1)
        return nodes

    return walk((), 1) if ell else 0  # the empty chain is listed without a walk


def path_family_nodes(mu, case):
    """Every single path of each row by N, D and E steps, then the
    vertex-disjoint families assembled row by row against all earlier
    paths; also the families found, each as its paths' point tuples."""
    n = len(mu)
    full = pad(mu, n)
    nodes = 0
    candidates = []
    for j in range(1, n + 1):
        end = (full[j - 1] - j, n + (case == 2))
        found = []

        def walk(pts):
            nonlocal nodes
            nodes += 1
            x, y = pts[-1]
            if (x, y) == end:
                found.append(pts)
                return
            for step in ((x + 1, y + 1), (x + 1, y), (x, y + 1)):
                if step[0] > end[0] or step[1] > end[1]:
                    continue
                if case == 2 and step == end and step[1] == y:  # a final east step
                    continue
                walk(pts + [step])

        walk([(-j, j)])
        candidates.append(found)

    families = []

    def assemble(j, used, chosen):
        if j == n:
            families.append(chosen)
            return 1
        count = 1
        for pts in candidates[j]:
            if used.isdisjoint(pts):
                count += assemble(j + 1, used | set(pts), chosen + (tuple(pts),))
        return count

    return nodes + assemble(0, frozenset(), ()), families


@pytest.fixture
def budgets(monkeypatch):
    """Every SearchBudget the searches make, in order."""
    made = []

    class Recorded(SearchBudget):
        def __init__(self, name):
            super().__init__(name)
            made.append(self)

    monkeypatch.setattr(search, "SearchBudget", Recorded)
    return made


@pytest.mark.parametrize("case", [1, 2])
def test_memoised_searches_charge_the_plain_walk(budgets, case):
    for mu in small_partitions(3, 3):
        path_nodes, families = path_family_nodes(mu, case)
        walks = (
            (lambda: domains.enumerate_tilings(domains.build_domain(mu, case)),
             tiling_nodes(domains.build_domain(mu, case))),
            (lambda: sequences.enumerate_sequences(mu, case), chain_nodes(mu, case)),
            (lambda: enumerate_tableaux(mu, case), chain_nodes(mu, case)),
            (lambda: paths.enumerate_path_families(mu, case), path_nodes),
        )
        for search, expected in walks:
            budgets.clear()
            search()
            assert [b.used for b in budgets] == [expected], (mu, case)
        # path j is checked against path j-1 alone: the same families, in order
        found = paths.enumerate_path_families(mu, case)
        assert [tuple(tuple(p.points()) for p in f.paths) for f in found] == families


@pytest.mark.parametrize(
    "search",
    [
        lambda: domains.enumerate_tilings(domains.build_domain((300,), 1)),
        lambda: sequences.enumerate_sequences((0,) * 300, 1),
        lambda: enumerate_tableaux((0,) * 300, 1),
        lambda: paths.enumerate_path_families((300,), 1),
    ],
    ids=["tilings", "sequences", "tableaux", "paths"],
)
def test_search_depth_needs_no_python_stack(search):
    # each finds one object hundreds of steps deep; with 100 frames to
    # spare above the caller, only a walk on an explicit stack gets there
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        assert len(search()) == 1
    finally:
        sys.setrecursionlimit(limit)


# each model's enumerator, given (mu, case)
ENUMERATORS = {
    "tilings": lambda mu, case: domains.enumerate_tilings(domains.build_domain(mu, case)),
    "sequences": sequences.enumerate_sequences,
    "tableaux": enumerate_tableaux,
    "paths": paths.enumerate_path_families,
}


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("model", sorted(ENUMERATORS))
def test_lazy_found_counts_streams_and_indexes_the_list(budgets, model, case):
    # the search's Found reads like the list of its items, and reading it,
    # by iterating or by an index from either end, charges no node
    enumerate_model = ENUMERATORS[model]
    for mu in small_partitions(3, 3):
        budgets.clear()
        found = enumerate_model(mu, case)
        charged = [b.used for b in budgets]
        listed = list(found)
        assert len(found) == len(listed) > 0, mu
        assert [found[i] for i in range(len(found))] == listed, mu
        assert found[-1] == listed[-1] and found[-len(found)] == listed[0], mu
        assert all(x in found for x in listed[:3]), mu
        for i in (len(found), -len(found) - 1):
            with pytest.raises(IndexError):
                found[i]
        for i in (1.5, slice(0, 1)):
            with pytest.raises(TypeError):
                found[i]
        assert [b.used for b in budgets] == charged, mu


@pytest.mark.parametrize("case", [0, 3])
@pytest.mark.parametrize("model", sorted(ENUMERATORS))
def test_enumerators_reject_a_bad_case(model, case):
    with pytest.raises(ValueError, match=f"^case must be 1 or 2, got {case}$"):
        ENUMERATORS[model]((2, 1), case)


@pytest.mark.parametrize("model", sorted(ENUMERATORS))
def test_enumerators_reject_a_non_partition(model):
    with pytest.raises(ValueError, match=r"^not a partition: \(1, 2\)$"):
        ENUMERATORS[model]((1, 2), 1)


# One valid object of each model class, its fields in order, and its repr.
VALUES = [
    (domains.build_domain((1,), 1), ("case", "mu", "lengths", "cells"),
     "Domain(case=1, mu=(1,), lengths=(1, 2), cells=frozenset({(1, 0), (0, 0)}))"),
    (domains.Domino(0, 1, "H"), ("d", "p", "orient"),
     "Domino(d=0, p=1, orient='H')"),
    (domains.enumerate_tilings(domains.build_domain((1,), 1))[0], ("domain", "dominoes"),
     "Tiling(domain=Domain(case=1, mu=(1,), lengths=(1, 2), cells=frozenset({(1, 0), "
     "(0, 0)})), dominoes=(Domino(d=0, p=0, orient='V'),))"),
    (sequences.enumerate_sequences((1,), 1)[0], ("case", "mu", "chain"),
     "PartitionSequence(case=1, mu=(1,), chain=((), (1,)))"),
    (enumerate_tableaux((1,), 1)[0], ("case", "shape", "rows"),
     "SuperSymplecticTableau(case=1, shape=(1,), "
     "rows=((Entry(value=1, barred=False),),))"),
    (paths.LatticePath((-1, 1), "E"), ("start", "steps"),
     "LatticePath(start=(-1, 1), steps='E')"),
    (paths.enumerate_path_families((1,), 1)[0], ("case", "mu", "paths"),
     "PathFamily(case=1, mu=(1,), paths=(LatticePath(start=(-1, 1), steps='E'),))"),
]


@pytest.mark.parametrize("value, fields, text", VALUES,
                         ids=[type(v).__name__ for v, _, _ in VALUES])
def test_model_values_are_immutable_and_hash_by_their_fields(value, fields, text):
    assert repr(value) == text
    state = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(state)
    assert value == type(value)(*state)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], state[0])


def test_dominoes_sort_by_start_then_h_before_v():
    Domino = domains.Domino
    shuffled = [Domino(1, 0, "H"), Domino(0, 1, "V"), Domino(0, 1, "H"), Domino(0, 0, "V")]
    assert sorted(shuffled) == [Domino(0, 0, "V"), Domino(0, 1, "H"), Domino(0, 1, "V"),
                                Domino(1, 0, "H")]
