import xml.etree.ElementTree as ET

import pytest

from conftest import small_partitions

from aztec_triangles.delannoy import lgv_determinant
from aztec_triangles.domains import (
    HORIZONTAL,
    VERTICAL,
    Domino,
    Tiling,
    build_domain,
    enumerate_tilings,
    render,
    sequence_to_tiling,
    tiling_to_sequence,
    validate_tiling,
)
from aztec_triangles.errors import CapExceeded
from aztec_triangles.partitions import HOLE, PARTICLE
from aztec_triangles.sequences import PartitionSequence, enumerate_sequences


def test_case1_domain_figure():
    dom = build_domain((3, 2, 1, 0), 1)
    assert dom.lengths == (3, 4, 4, 5, 5, 6, 6, 7)
    assert sorted(p for d, p in dom.cells if d == 7) == [1, 3, 5]
    assert all((d, p) in dom.cells for d in range(7) for p in range(dom.lengths[d]))


def test_case2_domain_figure():
    dom = build_domain((3, 2, 1), 2)
    assert dom.lengths == (3, 4, 4, 5, 5, 6, 6)
    assert sorted(p for d, p in dom.cells if d == 6) == [1, 3, 5]


def test_case1_last_diagonal_masks():
    assert sorted(p for d, p in build_domain((3, 2, 1), 1).cells if d == 5) == [0, 2, 4]
    assert sorted(
        p for d, p in build_domain((4, 1, 1, 0, 0), 1).cells if d == 9
    ) == [2, 5, 6, 7]


def test_aztec_triangle_special_case():
    # mu = (n,...,1) gives the original triangular domains
    for n in range(1, 5):
        dom = build_domain(tuple(range(n, 0, -1)), 1)
        assert dom.lengths[0] == n
        assert len(dom.cells) == 2 * sum(dom.lengths[d] for d in range(0, 2 * n, 2))


def test_degenerate_domains():
    assert build_domain((), 1).cells == frozenset()
    assert build_domain((), 2).cells == frozenset()
    assert build_domain((0,), 1).cells == frozenset()
    dom = build_domain((1,), 1)
    assert dom.cells == frozenset({(0, 0), (1, 0)})
    assert len(enumerate_tilings(dom)) == 1


def test_tiling_counts():
    assert len(enumerate_tilings(build_domain((2, 1), 1))) == 4
    assert len(enumerate_tilings(build_domain((3, 2, 1), 1))) == 60
    assert len(enumerate_tilings(build_domain((1, 0), 2))) == 4


# the worked example: dominoes read off the figure's tiling of the
# mu = (3,2,2,1) type 1 domain
EXDOMAIN_DOMINOES = tuple(
    sorted(
        [Domino(d, p, VERTICAL) for d, p in
         [(6, 0), (0, 0), (2, 3), (3, 4), (5, 5), (2, 0), (3, 1), (6, 2)]]
        + [Domino(d, p, HORIZONTAL) for d, p in
           [(0, 1), (0, 2), (6, 4), (4, 3), (1, 1), (4, 2), (2, 1), (5, 2), (4, 0), (5, 0)]]
    )
)
EXDOMAIN_CHAIN = ((), (1,), (2,), (3, 1), (3, 1), (3, 1), (3, 2, 1), (3, 2, 2, 1))


def test_figure_tiling_decodes_to_its_chain():
    tiling = Tiling(build_domain((3, 2, 2, 1), 1), EXDOMAIN_DOMINOES)
    seq = tiling_to_sequence(tiling)
    assert seq.chain == EXDOMAIN_CHAIN
    assert sequence_to_tiling(seq) == tiling


def test_forced_tiling_chain():
    tiling = enumerate_tilings(build_domain((1,), 1))[0]
    assert tiling_to_sequence(tiling).chain == ((), (1,))


def test_round_trips_exhaustive():
    for mu, case in [((2, 1), 1), ((1, 0), 2), ((2, 2), 2)]:
        for tiling in enumerate_tilings(build_domain(mu, case)):
            seq = tiling_to_sequence(tiling)
            assert sequence_to_tiling(seq) == tiling
        seqs = enumerate_sequences(mu, case)
        tilings = {sequence_to_tiling(s) for s in seqs}
        assert len(tilings) == len(seqs)


def test_sequence_to_tiling_rejects_invalid():
    with pytest.raises(ValueError):
        sequence_to_tiling(PartitionSequence(1, (1,), ((), (2,))))


def test_tiling_validation():
    dom = build_domain((2, 1), 1)
    good = enumerate_tilings(dom)[0]
    assert validate_tiling(good)
    overlapping = Tiling(dom, good.dominoes[:-1] + (good.dominoes[0],))
    assert not validate_tiling(overlapping)
    with pytest.raises(ValueError):
        tiling_to_sequence(Tiling(dom, good.dominoes[:-1]))


def test_tiling_rejects_unknown_orientation():
    # Domino.cells() reads any orientation but "H" as vertical
    odd = Tiling(build_domain((1,), 1), (Domino(0, 0, "Q"),))
    assert not validate_tiling(odd)
    with pytest.raises(ValueError, match="^invalid tiling$"):
        tiling_to_sequence(odd)


def test_diagonal_hole_particle_counts():
    # each diagonal carries ceil(i/2) particles; with the window padded by
    # virtual holes to n + ceil(i/2) cells it carries n holes
    from aztec_triangles.domains import _diagonal_words

    for mu, case in [((2, 1), 1), ((3, 2, 1), 1), ((2, 1, 0), 2)]:
        n = len(mu)
        dom = build_domain(mu, case)
        for tiling in enumerate_tilings(dom):
            for d, word in enumerate(_diagonal_words(tiling)):
                word += HOLE * (n - mu[0])
                assert word.count(PARTICLE) == (d + 1) // 2
                assert word.count(HOLE) == n


def test_counts_match_determinants():
    for mu in small_partitions(2, 3):
        for case in (1, 2):
            tilings = enumerate_tilings(build_domain(mu, case))
            assert len(tilings) == lgv_determinant(mu, case), (mu, case)


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "10")
    with pytest.raises(CapExceeded):
        enumerate_tilings(build_domain((4, 3, 2, 1), 1))


def test_cap_threshold_is_exact(monkeypatch):
    # the search spends exactly 43,932 nodes on (4,3,2,1), case 1
    dom = build_domain((4, 3, 2, 1), 1)
    monkeypatch.setenv("AZTEC_CAP", "43932")
    assert len(enumerate_tilings(dom)) == 3328
    monkeypatch.setenv("AZTEC_CAP", "43931")
    with pytest.raises(CapExceeded):
        enumerate_tilings(dom)


def test_case2_cap_threshold_is_exact(monkeypatch):
    # 425,888 nodes on (4,3,2,1), case 2, most of them in repeated subtrees
    dom = build_domain((4, 3, 2, 1), 2)
    monkeypatch.setenv("AZTEC_CAP", "425888")
    assert len(enumerate_tilings(dom)) == 32032
    monkeypatch.setenv("AZTEC_CAP", "425887")
    with pytest.raises(CapExceeded):
        enumerate_tilings(dom)


def test_tilings_in_canonical_order():
    for mu in small_partitions(3, 3):
        for case in (1, 2):
            keys = [t.dominoes for t in enumerate_tilings(build_domain(mu, case))]
            assert all(a < b for a, b in zip(keys, keys[1:])), (mu, case)
            assert all(list(k) == sorted(k) for k in keys), (mu, case)


def test_ascii_goldens():
    assert render(build_domain((1,), 1), "ascii") == ".~\n:\n"
    tilings = enumerate_tilings(build_domain((2, 1), 1))
    assert render(tilings[0], "ascii") == " Oo\nOoO~\nXxo\nO~\no\n"
    assert render(build_domain((), 1), "ascii") == ""


def test_ascii_domain_shading():
    text = render(build_domain((3, 2, 1, 0), 1), "ascii")
    # even diagonals light '.', odd dark ':', ghosts '~'
    assert set(text) <= {".", ":", "~", " ", "\n"}
    assert text.count("~") == 4  # particles of (3,2,1,0)


def test_svg_well_formed():
    dom = build_domain((3, 2, 1, 0), 1)
    doc = render(dom, "svg")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    tiling = enumerate_tilings(build_domain((2, 1), 1))[0]
    doc = render(tiling, "svg")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 2 * len(tiling.dominoes)


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render(build_domain((1,), 1), "png")


def test_render_deterministic():
    dom = build_domain((3, 2, 1), 2)
    assert render(dom, "svg") == render(dom, "svg")
    assert render(dom, "ascii") == render(dom, "ascii")
