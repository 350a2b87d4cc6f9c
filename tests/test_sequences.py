import gc
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import small_partitions

from aztec_triangles.delannoy import lgv_determinant
from aztec_triangles.domains import build_domain, enumerate_tilings
from aztec_triangles.errors import CapExceeded
from aztec_triangles.partitions import (
    is_horizontal_strip,
    is_partition,
    is_vertical_strip,
    normalize,
    part,
)
from aztec_triangles.paths import enumerate_path_families
from aztec_triangles.sequences import (
    PartitionSequence,
    _strip_extensions,
    chain_length,
    enumerate_sequences,
    validate_sequence,
)
from aztec_triangles.tableaux import enumerate_tableaux

CHAIN_5321 = ((), (2,), (3,), (3, 1), (3, 2), (4, 3, 2), (5, 3, 2), (5, 3, 2, 1))
CHAIN_EXDOMAIN = ((), (1,), (2,), (3, 1), (3, 1), (3, 1), (3, 2, 1), (3, 2, 2, 1))


def test_worked_chains_validate():
    assert validate_sequence(PartitionSequence(1, (5, 3, 2, 1), CHAIN_5321))
    assert validate_sequence(PartitionSequence(1, (3, 2, 2, 1), CHAIN_EXDOMAIN))


def test_part_count_condition_rejected():
    # lambda^(1) = (1,1) has two nonzero parts but ceil(1/2) = 1
    bad = PartitionSequence(1, (1, 1), ((), (1, 1), (1, 1), (1, 1)))
    assert not validate_sequence(bad)


def test_other_invalid_chains():
    # wrong length
    assert not validate_sequence(PartitionSequence(1, (1,), ((),)))
    # wrong final partition
    assert not validate_sequence(PartitionSequence(1, (1,), ((), (2,))))
    # not starting empty
    assert not validate_sequence(PartitionSequence(1, (1,), ((1,), (1,))))
    # a vertical-strip step growing a row by 2
    assert not validate_sequence(
        PartitionSequence(1, (3, 1), ((), (1,), (3,), (3, 1)))
    )
    assert not validate_sequence(PartitionSequence(3, (1,), ((), (1,))))


def test_enumeration_counts():
    assert len(enumerate_sequences((1,), 1)) == 1
    assert len(enumerate_sequences((2, 1), 1)) == 4
    assert len(enumerate_sequences((1, 0), 2)) == 4
    assert list(enumerate_sequences((), 1)) == [PartitionSequence(1, (), ())]


def test_enumeration_is_sorted_and_valid():
    for mu, case in [((2, 1), 1), ((2, 1), 2), ((3, 1), 1), ((1, 0), 2)]:
        seqs = enumerate_sequences(mu, case)
        chains = [s.chain for s in seqs]
        assert chains == sorted(chains)
        assert len(set(chains)) == len(chains)
        assert all(validate_sequence(s) for s in seqs)


def test_count_sequences_examples():
    assert lgv_determinant((2, 1), 1) == 4
    assert lgv_determinant((3, 2, 1), 1) == 60
    assert lgv_determinant((), 1) == 1
    assert lgv_determinant((), 2) == 1


def test_count_matches_enumeration():
    for mu in small_partitions(3, 3):
        for case in (1, 2):
            assert lgv_determinant(mu, case) == len(enumerate_sequences(mu, case)), (
                mu,
                case,
            )


def test_case1_case2_equinumerosity():
    for k in range(1, 5):
        case1 = lgv_determinant(tuple(range(k + 1, 0, -1)), 1)
        case2 = lgv_determinant(tuple(range(k, -1, -1)), 2)
        assert case1 == case2
    # small instances again by exhaustive enumeration
    for k in (1, 2):
        assert len(enumerate_sequences(tuple(range(k + 1, 0, -1)), 1)) == len(
            enumerate_sequences(tuple(range(k, -1, -1)), 2)
        )


def test_cap_exceeded(monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "5")
    with pytest.raises(CapExceeded):
        enumerate_sequences((3, 2, 1), 1)


def test_cap_threshold_is_exact(monkeypatch):
    # the search spends exactly 11,065 nodes on (4,3,2,1), case 1
    monkeypatch.setenv("AZTEC_CAP", "11065")
    assert len(enumerate_sequences((4, 3, 2, 1), 1)) == 3328
    monkeypatch.setenv("AZTEC_CAP", "11064")
    with pytest.raises(CapExceeded):
        enumerate_sequences((4, 3, 2, 1), 1)


def test_case2_cap_threshold_is_exact(monkeypatch):
    # 81,116 nodes on (4,3,2,1), case 2
    monkeypatch.setenv("AZTEC_CAP", "81116")
    assert len(enumerate_sequences((4, 3, 2, 1), 2)) == 32032
    monkeypatch.setenv("AZTEC_CAP", "81115")
    with pytest.raises(CapExceeded):
        enumerate_sequences((4, 3, 2, 1), 2)


def _reference_validate(seq):
    """The five chain conditions, read off the strip predicates directly."""
    if seq.case not in (1, 2) or not is_partition(seq.mu):
        return False
    chain = seq.chain
    if len(chain) != chain_length(seq.mu, seq.case):
        return False
    if not chain:
        return True
    if normalize(chain[0]) != () or normalize(chain[-1]) != normalize(seq.mu):
        return False
    for i, lam in enumerate(chain):
        if not is_partition(lam) or len(normalize(lam)) > (i + 1) // 2:
            return False
        strip = is_horizontal_strip if i % 2 == 1 else is_vertical_strip
        if i > 0 and not strip(lam, chain[i - 1]):
            return False
    return True


_VALID = [
    seq
    for mu in small_partitions(3, 3)
    for case in (1, 2)
    for seq in enumerate_sequences(mu, case)
]
_parts = st.lists(st.integers(-1, 4), max_size=5)
_tuples = st.one_of(
    _parts.map(lambda p: tuple(sorted(p, reverse=True))),  # mostly partitions
    _parts.map(tuple),
)


@st.composite
def _sequences(draw):
    """A valid chain with up to three entries replaced, or an arbitrary one."""
    if draw(st.booleans()):
        seq = draw(st.sampled_from(_VALID))
        chain = list(seq.chain)
        for _ in range(draw(st.integers(0, 3)) if chain else 0):
            chain[draw(st.integers(0, len(chain) - 1))] = draw(_tuples)
        return PartitionSequence(seq.case, seq.mu, tuple(chain))
    mu = draw(_tuples)
    case = draw(st.integers(0, 3))
    length = 2 * len(mu) + draw(st.integers(-1, 2))
    chain = draw(st.lists(_tuples, min_size=max(length, 0), max_size=max(length, 0)))
    return PartitionSequence(case, mu, tuple(chain))


@given(_sequences())
def test_validate_matches_strip_predicates(seq):
    assert validate_sequence(seq) == _reference_validate(seq)


def test_validate_matches_enumeration():
    # independent of the strip predicates: change one entry of each listed
    # chain in every way; the result is valid exactly when it is a chain of
    # partitions that the enumerator lists once trailing zeros are dropped
    valid = [
        seq
        for mu in small_partitions(2, 2)
        for case in (1, 2)
        for seq in enumerate_sequences(mu, case)
    ]
    listed = {(seq.mu, seq.case, seq.chain) for seq in valid}
    entries = [*small_partitions(2, 3), (0, 1), (-1,)]
    for seq in valid:
        for j in range(len(seq.chain)):
            for lam in entries:
                chain = seq.chain[:j] + (lam,) + seq.chain[j + 1 :]
                expect = all(map(is_partition, chain)) and (
                    (seq.mu, seq.case, tuple(map(normalize, chain))) in listed
                )
                assert validate_sequence(PartitionSequence(seq.case, seq.mu, chain)) == expect



@pytest.mark.parametrize(
    "enumerate_model",
    [
        enumerate_sequences,
        enumerate_tableaux,
        enumerate_path_families,
        lambda mu, case: enumerate_tilings(build_domain(mu, case)),
    ],
    ids=["sequences", "tableaux", "paths", "tilings"],
)
def test_search_leaves_no_garbage_cycles(enumerate_model):
    # every search runs on memo_search, which walks on an explicit stack and
    # has no closure that refers to itself: no reference cycle holds its
    # memo, so no search state waits for the cyclic gc
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_model((3, 2, 1), 2)) == 352
        assert gc.collect() == 0
    finally:
        gc.enable()


def strip_extensions_by_filter(lam, bound, max_parts, vertical):
    """The reference: every tuple in the per-row ranges, kept when it is a
    partition."""
    ranges = []
    for r in range(min(max_parts, len(bound))):
        lo = part(lam, r)
        top = lo + 1 if vertical else part(lam, r - 1) if r else bound[r]
        hi = min(bound[r], top)
        ranges.append(range(lo, hi + 1))
    return [normalize(nu) for nu in product(*ranges) if is_partition(nu)]


def test_strip_extensions_match_product_and_filter():
    checked = 0
    for bound in small_partitions(4, 4):
        inside = {normalize(lam) for lam in small_partitions(4, len(bound))
                  if all(a <= b for a, b in zip(lam, bound))}
        for lam, max_parts, vertical in product(
            sorted(inside), range(len(bound) + 1), (False, True)
        ):
            args = (lam, bound, max_parts, vertical)
            assert _strip_extensions(*args) == strip_extensions_by_filter(*args), args
            checked += 1
    assert checked > 10_000
