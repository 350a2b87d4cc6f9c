"""The bijections checked at scale: seeded indices of the staircases 6 and 7,
unranked from the tiling and chain searches, go round tiling -> chain ->
tableau -> path family and back, with every object valid and every
inverse exact."""

import random

import pytest

from aztec_triangles.domains import (
    HORIZONTAL,
    build_domain,
    enumerate_tilings,
    sequence_to_tiling,
    tiling_to_sequence,
    validate_tiling,
)
from aztec_triangles.paths import paths_to_tableau, tableau_to_paths, validate_family
from aztec_triangles.sequences import enumerate_sequences, validate_sequence
from aztec_triangles.tableaux import (
    sequence_to_tableau,
    tableau_to_sequence,
    validate_tableau,
)


@pytest.mark.parametrize("k", [6, 7])
@pytest.mark.parametrize("case", [1, 2])
def test_bijections_round_trip_at_seeded_indices(monkeypatch, k, case):
    # both counts walk past the default node cap, and past 10^9
    monkeypatch.setenv("AZTEC_CAP", str(10**30))
    mu = tuple(range(k, 0, -1))
    tilings = enumerate_tilings(build_domain(mu, case))
    chains = enumerate_sequences(mu, case)
    assert tilings.goals == chains.goals
    count = tilings.goals
    rng = random.Random(k * 10 + case)
    indices = [0, count - 1] + [rng.randrange(count) for _ in range(20)]
    excess = set()
    for i in indices:
        tiling = tilings[i]
        assert validate_tiling(tiling)
        seq = tiling_to_sequence(tiling)
        assert validate_sequence(seq)
        tableau = sequence_to_tableau(seq)
        assert validate_tableau(tableau)
        family = tableau_to_paths(tableau)
        assert validate_family(family)
        assert paths_to_tableau(family) == tableau
        assert tableau_to_sequence(tableau) == seq
        assert sequence_to_tiling(seq) == tiling
        # the statistic: diagonal steps = barred entries, and the H dominoes
        # exceed twice that by k(k-1)/2 on every tiling of the staircase
        barred = sum(e.barred for row in tableau.rows for e in row)
        assert sum(p.steps.count("D") for p in family.paths) == barred
        h = sum(d.orient == HORIZONTAL for d in tiling.dominoes)
        excess.add(h - 2 * barred)
        # the other direction, on a chain that no tiling walk chose
        chain = chains[i]
        assert validate_sequence(chain)
        assert tiling_to_sequence(sequence_to_tiling(chain)) == chain
    assert excess == {k * (k - 1) // 2}
