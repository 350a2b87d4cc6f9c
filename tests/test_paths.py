from fractions import Fraction
from math import prod

import pytest

from conftest import small_partitions

from aztec_triangles.delannoy import (
    delannoy_D,
    delannoy_H,
    lgv_determinant,
    staircase_rows,
)
from aztec_triangles.errors import CapExceeded
from aztec_triangles.exact import Matrix
from aztec_triangles.formulas import product_main
from aztec_triangles.paths import (
    LatticePath,
    PathFamily,
    enumerate_path_families,
    is_vertex_disjoint,
    lgv_matrix,
    paths_to_tableau,
    tableau_to_paths,
    validate_family,
)
from aztec_triangles.sequences import enumerate_sequences
from aztec_triangles.tableaux import sequence_to_tableau

from test_tableaux import FIG_TABLEAU

HALF = Fraction(1, 2)


def test_figure_family():
    fam = tableau_to_paths(FIG_TABLEAU)
    assert [p.start for p in fam.paths] == [(-1, 1), (-2, 2), (-3, 3), (-4, 4)]
    assert [p.end for p in fam.paths] == [(4, 4), (1, 4), (-1, 4), (-3, 4)]
    assert [p.steps for p in fam.paths] == ["EEDNED", "EDEN", "EEN", "E"]
    assert is_vertex_disjoint(fam)
    assert validate_family(fam)
    assert paths_to_tableau(fam) == FIG_TABLEAU


def test_empty_family():
    empty = PathFamily(1, (), ())
    assert validate_family(empty)
    assert paths_to_tableau(empty).rows == ()


def test_family_violations():
    # each family breaks one rule and satisfies every other
    # mu = (1, 1): path 1 runs (-1,1) -> (0,2) and path 2 (-2,2) -> (-1,2)
    ok = PathFamily(1, (1, 1), (LatticePath((-1, 1), "EN"), LatticePath((-2, 2), "E")))
    assert validate_family(ok)
    # path 1's north step reaches (-1,2), where path 2 ends
    meet = ok._replace(paths=(LatticePath((-1, 1), "NE"), ok.paths[1]))
    assert not is_vertex_disjoint(meet)
    assert not validate_family(meet)
    with pytest.raises(ValueError):
        paths_to_tableau(meet)
    # a case that is neither 1 nor 2; this path ends where case 1 puts it
    assert not validate_family(PathFamily(3, (1,), (LatticePath((-1, 1), "E"),)))
    # one path fewer than parts
    assert not validate_family(PathFamily(1, (1,), ()))
    # a wrong end, then a wrong start
    assert not validate_family(PathFamily(1, (1,), (LatticePath((-1, 1), "N"),)))
    assert not validate_family(PathFamily(1, (1,), (LatticePath((0, 1), ""),)))
    # a Case 2 path ending in an east step; "EN" reaches the same end
    assert not validate_family(PathFamily(2, (1,), (LatticePath((-1, 1), "NE"),)))
    assert validate_family(PathFamily(2, (1,), (LatticePath((-1, 1), "EN"),)))
    # a step that is none of N, D and E, before or after a valid one
    for steps in ("X", "EX"):
        odd = PathFamily(1, (1,), (LatticePath((-1, 1), steps),))
        assert not validate_family(odd)
        with pytest.raises(ValueError, match="invalid path family"):
            paths_to_tableau(odd)
    with pytest.raises(ValueError):
        tableau_to_paths(FIG_TABLEAU._replace(case=3))


def test_round_trip_exhaustive():
    for mu, case in [((2, 1), 1), ((1, 0), 2), ((2, 2), 1)]:
        for seq in enumerate_sequences(mu, case):
            t = sequence_to_tableau(seq)
            fam = tableau_to_paths(t)
            assert validate_family(fam)
            assert paths_to_tableau(fam) == t


def test_enumerate_family_counts():
    assert len(enumerate_path_families((1,), 1)) == 1
    assert len(enumerate_path_families((2, 1), 1)) == 4
    fams = enumerate_path_families((2, 1), 2)
    assert len(fams) == lgv_matrix((2, 1), 2).determinant()


def test_enumerate_cap_threshold_is_exact(monkeypatch):
    # single paths plus assembly spend exactly 10,120 nodes on (4,3,2,1), case 1
    monkeypatch.setenv("AZTEC_CAP", "10120")
    assert len(enumerate_path_families((4, 3, 2, 1), 1)) == 3328
    monkeypatch.setenv("AZTEC_CAP", "10119")
    with pytest.raises(CapExceeded):
        enumerate_path_families((4, 3, 2, 1), 1)


def test_enumerate_case2_cap_threshold_is_exact(monkeypatch):
    # single paths plus assembly spend exactly 56,287 nodes on (4,3,2,1), case 2
    monkeypatch.setenv("AZTEC_CAP", "56287")
    assert len(enumerate_path_families((4, 3, 2, 1), 2)) == 32032
    monkeypatch.setenv("AZTEC_CAP", "56286")
    with pytest.raises(CapExceeded):
        enumerate_path_families((4, 3, 2, 1), 2)


def test_case2_paths_never_end_east():
    for fam in enumerate_path_families((2, 1, 0), 2):
        for path in fam.paths:
            assert not path.steps.endswith("E")


def test_lgv_examples():
    assert lgv_matrix((1,), 1).entries == ((1,),)  # D(1,0)
    assert lgv_matrix((2, 1), 1).determinant() == 4
    assert lgv_matrix((), 1).determinant() == 1
    assert lgv_matrix((), 2).determinant() == 1
    with pytest.raises(ValueError, match="case must be 1 or 2, got 3"):
        lgv_matrix((1,), 3)


def test_lgv_agreement_grid():
    for mu in small_partitions(3, 2):
        for case in (1, 2):
            det = lgv_matrix(mu, case).determinant()
            fams = enumerate_path_families(mu, case)
            assert det == len(fams) == lgv_determinant(mu, case), (mu, case)
            assert all(validate_family(f) for f in fams)


def test_lgv_matrix_is_the_leading_block():
    # the block of the nonzero parts has the determinant of the full n x n
    # matrix, built here from the closed forms
    for mu in small_partitions(5, 6):
        n = len(mu)
        for case, count in ((1, delannoy_D), (2, delannoy_H)):
            block = lgv_matrix(mu, case)
            assert block.nrows == n - mu.count(0)
            full = Matrix(
                [[count(mu[a] - a + b, n - b - 1) for b in range(n)] for a in range(n)]
            )
            assert block.determinant() == full.determinant(), (mu, case)


def test_d_submatrix_examples():
    assert staircase_rows(1, 5, 1) == ([[9]], [1])  # D1(1;n) = [[2n-1]]
    assert staircase_rows(2, 1, 1) == ([[1, -1], [1, -1]], [1, 1])
    assert Matrix(staircase_rows(2, 1, 1)[0]).determinant() == 0
    assert staircase_rows(1, 4, 2) == ([[8]], [1])  # D2(1;n) = [[2n]]
    assert staircase_rows(0, 3, 1) == ([], [])
    assert staircase_rows(2, -1, 1) == ([[5, -25], [1, -5]], [1, 1])


def test_d_submatrix_case2_needs_integer_n():
    with pytest.raises(ValueError):
        staircase_rows(2, HALF, 2)
    assert staircase_rows(2, Fraction(4, 2), 2) == staircase_rows(2, 2, 2)
    with pytest.raises(ValueError):
        staircase_rows(2, 2, 3)


def test_bordered_matrix_reduces_to_bottom_right_block():
    # the LGV matrix of (k,...,1,0^(n-k)) is the staircase matrix, entry for
    # entry: D1(k; n), and D2(k; n) anti-transposed
    for n in range(11):
        for k in range(n + 1):
            mu = tuple(range(k, 0, -1)) + (0,) * (n - k)
            for case in (1, 2):
                rows, scales = staircase_rows(k, n, case)
                assert scales == [1] * k
                assert lgv_matrix(mu, case).entries == tuple(map(tuple, rows)), (
                    k, n, case,
                )


def test_two_indexings_same_determinant():
    # the Case 1 matrix in its other indexing, D(2j-i, i+n-k-1) for
    # 1 <= i,j <= k, is the anti-transpose of D1(k; n); anti-transposing the
    # int rows keeps their determinant
    for k in range(5):
        for n in [-2, 0, 1, 3, HALF, Fraction(-5, 2)]:
            rows, scales = staircase_rows(k, n, 1)
            other = [
                [delannoy_D(2 * j - i, i + n - k - 1) for j in range(1, k + 1)]
                for i in range(1, k + 1)
            ]
            flipped = [[rows[k - 1 - b][k - 1 - a] for b in range(k)] for a in range(k)]
            assert other == [
                [Fraction(x, scales[k - 1 - b]) for b, x in enumerate(row)]
                for row in flipped
            ]
            assert Matrix(flipped).determinant() == Matrix(rows).determinant()


@pytest.mark.parametrize("k", range(9))
def test_staircase_determinant_in_both_orders(k):
    # ``Matrix.determinant`` eliminates the matrix turned 180 degrees; the
    # anti-transpose, turned, is the transpose, which it eliminates in the
    # unturned order.  Both equal the product: case 1 at half-integer n, and
    # case 2 at integer n, as det D2(k; n) = det D1(k; n + 1/2); n < k too
    for m in range(-3, 2 * k + 2):
        for case, n in ((1, m + HALF), (2, m)):
            rows, scales = staircase_rows(k, n, case)
            flipped = [[rows[k - 1 - b][k - 1 - a] for b in range(k)] for a in range(k)]
            det = Matrix(rows).determinant()
            assert Matrix(flipped).determinant() == det, (k, n, case)
            assert Fraction(det, prod(scales)) == product_main(k, m + HALF), (k, n, case)


def test_entry_conventions():
    # spot-check the matrix entry layouts against direct evaluation
    rows, scales = staircase_rows(3, Fraction(7, 3), 1)
    for i in range(3):
        for j in range(3):
            assert Fraction(rows[i][j], scales[i]) == delannoy_D(
                3 - 2 * i + j, Fraction(7, 3) - j - 1
            )
    rows, _ = staircase_rows(3, 4, 2)
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == delannoy_H(3 - 2 * i + j, 4 - j - 1)


def test_path_points():
    path = LatticePath((-1, 1), "EEDNED")
    pts = path.points()
    assert pts[0] == (-1, 1)
    assert pts[-1] == (4, 4)
    assert len(pts) == 7
