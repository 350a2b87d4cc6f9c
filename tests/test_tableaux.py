from itertools import combinations_with_replacement, product

import pytest

from conftest import small_partitions

from aztec_triangles.delannoy import lgv_determinant
from aztec_triangles.errors import CapExceeded
from aztec_triangles.sequences import PartitionSequence, enumerate_sequences
from aztec_triangles.tableaux import (
    Entry,
    SuperSymplecticTableau,
    enumerate_tableaux,
    sequence_to_tableau,
    tableau_to_sequence,
    validate_tableau,
)

from test_sequences import CHAIN_5321


def rows_of(*rows):
    return tuple(tuple(Entry(int(x.rstrip("~")), x.endswith("~")) for x in row)
                 for row in rows)


FIG_TABLEAU = SuperSymplecticTableau(
    1,
    (5, 3, 2, 1),
    rows_of(("1", "1", "1~", "3", "3~"), ("2", "2~", "3"), ("3", "3"), ("4",)),
)


def test_entry_ordering_and_parse():
    assert Entry(1, False) < Entry(1, True) < Entry(2, False)
    assert str(Entry(3, True)) == "3~"
    assert str(Entry(12, False)) == "12"


def test_figure_tableau_validates():
    assert validate_tableau(FIG_TABLEAU)


def test_empty_tableau_validates():
    assert validate_tableau(SuperSymplecticTableau(1, (), ()))


def test_symplectic_violation():
    # row 4's 3~ exceeds the 3 above it and is admissible in type 1, so only
    # the symplectic bound (row r needs entries >= r) rejects it
    bad = SuperSymplecticTableau(
        1,
        (5, 3, 2, 1),
        rows_of(("1", "1", "1~", "3", "3~"), ("2", "2~", "3"), ("3", "3"), ("3~",)),
    )
    assert not validate_tableau(bad)


def test_strip_violations():
    # two equal unbarred entries stacked in a column
    bad = SuperSymplecticTableau(1, (1, 1), rows_of(("2",), ("2",)))
    assert not validate_tableau(bad)
    # two equal barred entries in a row (1~ itself is admissible in type 2)
    bad = SuperSymplecticTableau(2, (2,), rows_of(("1~", "1~")))
    assert not validate_tableau(bad)
    # type bound: a barred n needs type 2
    over = SuperSymplecticTableau(1, (1,), rows_of(("1~",)))
    assert not validate_tableau(over)
    assert validate_tableau(SuperSymplecticTableau(2, (1,), rows_of(("1~",))))


def test_shape_violations():
    # each tableau breaks one shape rule and satisfies every entry rule
    ok = SuperSymplecticTableau(1, (2,), rows_of(("1", "1")))
    assert validate_tableau(ok)
    assert not validate_tableau(ok._replace(case=3))
    # a row narrower than its part of the shape
    assert not validate_tableau(ok._replace(rows=rows_of(("1",))))
    # fewer rows than parts: (2, 0) allows entries up to 2
    assert not validate_tableau(ok._replace(shape=(2, 0)))
    # a shape that is not a partition: row 2 is longer than row 1
    bad = SuperSymplecticTableau(1, (1, 2), rows_of(("1",), ("2", "2")))
    assert not validate_tableau(bad)


def test_figure_bijection():
    seq = PartitionSequence(1, (5, 3, 2, 1), CHAIN_5321)
    assert sequence_to_tableau(seq) == FIG_TABLEAU
    assert tableau_to_sequence(FIG_TABLEAU) == seq


def test_empty_bijection():
    seq = PartitionSequence(1, (), ())
    empty = sequence_to_tableau(seq)
    assert empty.rows == ()
    assert tableau_to_sequence(empty) == seq


def test_round_trip_exhaustive():
    from conftest import small_partitions

    for mu in small_partitions(3, 3):
        for case in (1, 2):
            for seq in enumerate_sequences(mu, case):
                t = sequence_to_tableau(seq)
                assert validate_tableau(t)
                assert tableau_to_sequence(t) == seq


def test_rule_count_matches_determinant():
    # every filling with weakly increasing rows of admissible entries, kept
    # when validate_tableau accepts it: no chain is involved
    for mu in small_partitions(3, 3):
        for case in (1, 2):
            top = SuperSymplecticTableau(case, mu, ()).max_entry()
            entries = [e for v in range(1, top.value + 1)
                       for e in (Entry(v, False), Entry(v, True)) if e <= top]
            rows = [combinations_with_replacement(entries, width) for width in mu]
            valid = sum(validate_tableau(SuperSymplecticTableau(case, mu, filling))
                        for filling in product(*rows))
            assert valid == lgv_determinant(mu, case), (mu, case)


def test_enumerate_examples():
    only = enumerate_tableaux((1,), 1)
    assert len(only) == 1
    assert only[0].rows == rows_of(("1",))
    assert len(enumerate_tableaux((2, 1), 1)) == 4
    assert len(enumerate_tableaux((1, 0), 2)) == 4


def test_enumerate_matches_bijection():
    for mu in small_partitions(3, 3):
        for case in (1, 2):
            assert list(enumerate_tableaux(mu, case)) == [
                sequence_to_tableau(s) for s in enumerate_sequences(mu, case)
            ], (mu, case)


def test_cap_threshold_is_exact(monkeypatch):
    # the tableaux come from the chain search: 11,065 nodes on (4,3,2,1), case 1
    monkeypatch.setenv("AZTEC_CAP", "11065")
    assert len(enumerate_tableaux((4, 3, 2, 1), 1)) == 3328
    monkeypatch.setenv("AZTEC_CAP", "11064")
    with pytest.raises(CapExceeded):
        enumerate_tableaux((4, 3, 2, 1), 1)


def test_case2_cap_threshold_is_exact(monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "81116")
    assert len(enumerate_tableaux((4, 3, 2, 1), 2)) == 32032
    monkeypatch.setenv("AZTEC_CAP", "81115")
    with pytest.raises(CapExceeded):
        enumerate_tableaux((4, 3, 2, 1), 2)


def test_rows_have_at_most_one_barred_value():
    for t in enumerate_tableaux((3, 2), 2):
        for row in t.rows:
            barred = [e for e in row if e.barred]
            assert len(barred) == len(set(barred))


def test_contract_violations_raise():
    with pytest.raises(ValueError):
        sequence_to_tableau(PartitionSequence(1, (1,), ((), (2,))))
    with pytest.raises(ValueError):
        tableau_to_sequence(SuperSymplecticTableau(1, (1, 1), rows_of(("2",), ("2",))))


def test_json_shape():
    js = FIG_TABLEAU.to_json()
    assert js["shape"] == [5, 3, 2, 1]
    assert js["rows"][0] == ["1", "1", "1~", "3", "3~"]
