import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztec_triangles.cli import main
from aztec_triangles.delannoy import (
    count_D_paths_bruteforce,
    count_H_paths_bruteforce,
    delannoy_D,
    delannoy_H,
    half_shift_expansion,
    staircase_rows,
)
from aztec_triangles.exact import binomial

HALF = Fraction(1, 2)


def test_delannoy_D_examples():
    assert delannoy_D(0, 0) == 1
    assert delannoy_D(1, 1) == 3
    assert delannoy_D(3, -1) == -1  # 1 - 6 + 12 - 8
    assert delannoy_D(2, -HALF) == HALF
    assert delannoy_D(-2, 5) == 0


def test_delannoy_D_matches_reference_sum():
    # the binomial sum in Fraction arithmetic, at integral and non-integral j
    for b in (1, 2, 3, 7):
        for a in range(-20, 21):
            j = Fraction(a, b)
            binomials_j = [binomial(j, l) * 2**l for l in range(31)]
            for i in range(-2, 31):
                value = delannoy_D(i, j)
                reference = sum(
                    (binomial(i, l) * binomials_j[l] for l in range(i + 1)), Fraction(0)
                )
                assert value == reference, (i, j)
                assert type(value) is (int if reference.denominator == 1 else Fraction)


def test_delannoy_H_examples():
    assert delannoy_H(0, -1) == 1
    assert delannoy_H(1, 1) == 4  # D(1,1) + D(0,1)
    assert delannoy_H(-1, 5) == 0
    assert delannoy_H(3, -1) == 0


def test_bruteforce_D_examples():
    assert count_D_paths_bruteforce(0, 0) == 1
    assert count_D_paths_bruteforce(2, 2) == 13
    assert count_D_paths_bruteforce(2, 1) == 5
    with pytest.raises(ValueError):
        count_D_paths_bruteforce(-1, 2)


def test_bruteforce_H_examples():
    assert count_H_paths_bruteforce(0, -1) == 1
    assert count_H_paths_bruteforce(1, 1) == 4
    assert count_H_paths_bruteforce(2, 1) == 8
    with pytest.raises(ValueError):
        count_H_paths_bruteforce(0, -2)


def test_closed_forms_match_path_counts():
    for i in range(13):
        for j in range(13):
            assert delannoy_D(i, j) == count_D_paths_bruteforce(i, j)
            assert delannoy_H(i, j) == count_H_paths_bruteforce(i, j)
    # H's path model also covers the j = -1 boundary
    for i in range(13):
        assert delannoy_H(i, -1) == count_H_paths_bruteforce(i, -1)


def test_six_identities():
    for i in range(21):
        for j in range(21):
            D = delannoy_D(i, j)
            assert D == delannoy_D(i - 1, j) + delannoy_H(i, j - 1)
            assert D == sum(delannoy_H(l, j - 1) for l in range(i + 1))
            assert D == sum(
                binomial(i, l) * binomial(j, l) * 2**l for l in range(i + 1)
            )
            H = delannoy_H(i, j)
            assert H == (
                delannoy_H(i - 1, j)
                + delannoy_H(i, j - 1)
                + delannoy_H(i - 1, j - 1)
            )
            if i >= 1:
                # Telescoping item 3 of the H definition in j; the printed
                # form has its indices off by one in both slots.
                assert H == 2 * sum(delannoy_D(l, i - 1) for l in range(j + 1))
                assert H == sum(
                    binomial(i - 1, l - 1) * binomial(j + 1, l) * 2**l
                    for l in range(1, i + 1)
                )
            else:
                assert H == 1


def test_extended_recurrence():
    for i in range(-3, 13):
        for j in range(-3, 13):
            assert delannoy_D(i, j) == (
                delannoy_D(i - 1, j)
                + delannoy_D(i - 1, j - 1)
                + delannoy_D(i, j - 1)
            )
    # rational second arguments as well
    for i in range(-2, 8):
        for num in range(-5, 12, 2):
            j = Fraction(num, 2)
            assert delannoy_D(i, j) == (
                delannoy_D(i - 1, j)
                + delannoy_D(i - 1, j - 1)
                + delannoy_D(i, j - 1)
            )


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=25),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
def test_recurrence_at_random_rationals(i, j):
    assert delannoy_D(0, j) == 1
    assert delannoy_D(i, j) == (
        delannoy_D(i - 1, j) + delannoy_D(i - 1, j - 1) + delannoy_D(i, j - 1)
    )


def test_huge_part_is_instant(capsys):
    # the sum stops at min(i, j) for a non-negative integer j, so a first
    # argument of 10^20 costs no more than its second
    m = 10**20
    for j, closed_form in enumerate((1, 2 * m + 1, 2 * m * m + 2 * m + 1)):
        assert delannoy_D(m, j) == closed_form
    # (M, 5), M = 10^20 - 1, counts det [[D(M,1), D(M+1,0)], [D(4,1), D(5,0)]]
    # = (2M + 1) - 9
    huge = "99999999999999999999"
    for mu, case, printed in [(huge, 1, 1), (huge, 2, 2),
                              (huge + ",5", 1, 199999999999999999990)]:
        start = time.perf_counter()
        code = main(["count", "--mu", mu, "--case", str(case)])
        assert time.perf_counter() - start < 1
        assert (code, capsys.readouterr().out) == (0, f"{printed}\n")


def test_half_integer_base_case():
    for i in range(21):
        if i % 2 == 1:
            assert delannoy_D(i, -HALF) == 0
        else:
            assert delannoy_D(i, -HALF) == abs(binomial(-HALF, i // 2))


def test_half_shift_expansion():
    assert half_shift_expansion(0, 0) == 1
    assert half_shift_expansion(1, 0) == 2
    assert half_shift_expansion(2, -1) == HALF
    for i in range(-1, 13):
        for j in range(-1, 13):
            assert half_shift_expansion(i, j) == delannoy_D(i, j + HALF)
    with pytest.raises(ValueError):
        half_shift_expansion(-2, 0)


def test_polynomial_in_second_argument():
    # D(i, j) has degree i in j: finite differences of order i+1 vanish
    for i in range(6):
        values = [delannoy_D(i, j) for j in range(-2, i + 4)]
        for _ in range(i + 1):
            values = [b - a for a, b in zip(values, values[1:])]
        assert all(v == 0 for v in values)


def test_d1_rows_match_reference_entries():
    # case 1 rows over scales equal the binomial-sum entries
    # D(k-2i+j, n-j-1) at n in -12..12 in halves, thirds and sevenths; an
    # integer n, even as a Fraction, gives plain int rows over scale 1
    for k in range(11):
        for b in (2, 3, 7):
            for a in range(-12 * b, 12 * b + 1):
                n = Fraction(a, b)
                rows, scales = staircase_rows(k, n, 1)
                reference = [
                    [delannoy_D(k - 2 * i + j, n - j - 1) for j in range(k)]
                    for i in range(k)
                ]
                assert len(rows) == len(scales) == k and all(c > 0 for c in scales)
                assert [
                    [Fraction(x, c) for x in row] for row, c in zip(rows, scales)
                ] == reference, (k, n)
                if n.denominator == 1:
                    assert scales == [1] * k
                    assert all(type(x) is int for row in rows for x in row)


def test_d2_matches_reference_entries():
    # case 2 is the paper's D2(k; n), H(2j-i, i+n-k-1) for 1 <= i,j <= k
    # from the closed form, anti-transposed: its entry (i, j) is case 2's
    # (k-j, k-i), H(k-2i+j, n-j-1) there.  Plain ints over scale 1; an
    # integer n given as a Fraction gives the same rows
    for k in range(11):
        for n in range(-12, 13):
            reference = [
                [delannoy_H(2 * j - i, i + n - k - 1) for j in range(1, k + 1)]
                for i in range(1, k + 1)
            ]
            for given in (n, Fraction(2 * n, 2)):
                rows, scales = staircase_rows(k, given, 2)
                assert scales == [1] * k
                assert all(type(x) is int for row in rows for x in row)
                assert [
                    [rows[k - j][k - i] for j in range(1, k + 1)]
                    for i in range(1, k + 1)
                ] == reference, (k, given)

