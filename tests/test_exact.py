import re
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aztec_triangles.exact import (
    Matrix,
    binomial,
    pochhammer,
    pq,
    ratio,
)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(-1, 1) == -1
    assert binomial(3, -1) == 0
    assert binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)
    assert binomial(7, 0) == 1
    assert binomial(Fraction(-1, 2), 2) == Fraction(3, 8)


def test_binomial_pascal_grid():
    # x over integers and halves, l beyond both ends of the usual range
    xs = [Fraction(m) for m in range(-5, 6)]
    xs += [Fraction(2 * m + 1, 2) for m in range(-5, 5)]
    for x in xs:
        for l in range(-3, 9):
            assert binomial(x, l) == binomial(x - 1, l - 1) + binomial(x - 1, l)


def _falling_binomial(x, l):
    if l < 0:
        return 0
    return Fraction(prod(x - m for m in range(l)), factorial(l))


def test_binomial_int_path_matches_falling_product():
    for x in range(-10, 21):
        for l in range(-1, 13):
            value = binomial(x, l)
            assert type(value) is int, (x, l)
            assert value == _falling_binomial(x, l) == binomial(Fraction(x), l), (x, l)


@given(
    st.fractions(max_denominator=20),
    st.integers(min_value=-3, max_value=12),
)
def test_binomial_pascal_property(x, l):
    assert binomial(x, l) == binomial(x - 1, l - 1) + binomial(x - 1, l)


def test_pochhammer_examples():
    assert pochhammer(Fraction(9, 7), 0) == 1
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(1, 5) == 120


def test_pochhammer_recurrence():
    for num in range(-6, 7):
        x = Fraction(num, 2)
        for i in range(0, 8):
            assert pochhammer(x, i + 1) == pochhammer(x, i) * (x + i)
    # an int x takes the int path, with the Fraction path's value
    for x in range(-6, 7):
        for i in range(0, 9):
            assert type(pochhammer(x, i)) is int
            assert pochhammer(x, i) == pochhammer(Fraction(x), i)
            assert pochhammer(x, i + 1) == pochhammer(x, i) * (x + i)
    # x = p/q with q = 3 and 7 and p of either sign against the Fraction
    # product; an integral x written as a Fraction returns an int
    for q in (1, 2, 3, 7):
        for num in range(-15, 16):
            x = Fraction(num, q)
            for i in range(0, 8):
                value = pochhammer(x, i)
                assert value == prod(x + a for a in range(i)), (x, i)
                assert (type(value) is int) == (x.denominator == 1 or i == 0)


def test_pochhammer_negative_index():
    # (x)_(-m) (x-m)_m = 1 away from the poles, where some x - a, 1 <= a <= m,
    # is 0; the value is an int exactly when it is integral
    for q in (1, 2, 3, 7):
        for num in range(-15, 16):
            x = Fraction(num, q)
            for m in range(1, 8):
                if any(x == a for a in range(1, m + 1)):
                    continue
                value = pochhammer(x, -m)
                assert value * prod(x - m + a for a in range(m)) == 1, (x, m)
                assert (type(value) is int) == (Fraction(value).denominator == 1)
    with pytest.raises(ZeroDivisionError):
        pochhammer(1, -1)


def test_double_factorial():
    # i!! is the product of the integers in [1, i] with the parity of i
    assert [prod(range(i, 0, -2)) for i in (0, 1, 5, 6)] == [1, 1, 15, 48]
    # (2i-1)!! = 2^i (1/2)_i and (2i)!! = 2^i (1)_i
    for i in range(12):
        assert pochhammer(Fraction(1, 2), i) * 2**i == prod(range(2 * i - 1, 0, -2))
        assert pochhammer(1, i) * 2**i == prod(range(2 * i, 0, -2))


def test_ratio_is_the_normalized_fraction():
    # the int quotient when den divides num, else the Fraction, at either sign
    big = 3**80
    cases = [(num, den) for num in range(-12, 13) for den in range(-6, 7) if den]
    cases += [(big * 7, 7), (big * 7, -7), (big + 1, 3), (-big, 3 * big), (0, -5)]
    for num, den in cases:
        value = ratio(num, den)
        assert value == Fraction(num, den), (num, den)
        assert type(value) is (Fraction if num % den else int), (num, den)
    with pytest.raises(ZeroDivisionError):
        ratio(1, 0)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        pq(0.5)
    assert pq(Fraction(1, 2)) == (1, 2)
    assert pq(Fraction(-6, 4)) == (-3, 2)
    assert pq(3) == (3, 1)
    assert pq(True) == (1, 1) and type(pq(True)[0]) is int
    from aztec_triangles.delannoy import delannoy_D

    for j in (0.5, 2.0, "2", Decimal(2), Decimal("0.5")):
        with pytest.raises(TypeError):
            delannoy_D(2, j)
    for x, name in ((1.5, "float"), ("2", "str"), (Decimal(2), "Decimal")):
        with pytest.raises(TypeError, match=f"^exact rational required, got {name}$"):
            pq(x)
        with pytest.raises(TypeError, match=f"^exact rational required, got {name}$"):
            pochhammer(x, 2)
    for fn in (binomial, pochhammer):
        with pytest.raises(TypeError, match="^exact rational required, got float$"):
            fn(1.5, 2)
    # determinants take int entries only, so a Fraction is refused too
    for rows in (
        [[0.5]], [[1, 2.0], [3, 4]], [[Fraction(1, 2), 1], [0.25, 1]], [[Fraction(1, 2)]]
    ):
        with pytest.raises(TypeError):
            Matrix(rows).determinant()


def _det_by_permutation_expansion(m: Matrix) -> int:
    total = 0
    n = m.nrows
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * prod(m.entries[i][perm[i]] for i in range(n))
    return total


def test_determinant_trivial_cases():
    assert Matrix([]).determinant() == 1
    assert Matrix([[5]]).determinant() == 5
    assert Matrix([[1, -1], [1, -1]]).determinant() == 0
    # a zero last column is the turned matrix's first column: 0 at once
    assert Matrix([[1, 2, 0], [3, 4, 0], [5, 6, 0]]).determinant() == 0


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]]).determinant()


def test_determinant_needs_row_swap():
    m = Matrix([[0, 1], [1, 0]])
    assert m.determinant() == -1
    m = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert m.determinant() == -1
    # the turned matrix's first pivot is the bottom-right entry, 0 here
    assert Matrix([[1, 2], [3, 0]]).determinant() == -6
    assert Matrix([[1, 2, 3], [4, 5, 6], [7, 8, 0]]).determinant() == 27


_int_rows = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(_int_rows, st.integers(min_value=0, max_value=2))
# the examples name the steps of the elimination, which turns the matrix 180
# degrees first
@example([[8, 7, 6], [5, 4, 3], [2, 1, 0]], 0)  # singular, swap at the first pivot
@example([[1, 1, 5], [7, 4, 2], [3, 2, 1]], 0)  # swap at the second pivot
@example([[5, 0], [0, 0]], 0)  # all-zero first column
def test_int_determinant_matches_expansion(rows, shape):
    # shape 1 makes the last row a copy of the first, or zero when n = 1
    # (singular); shape 2 zeroes the first pivot, the bottom-right entry
    if rows and shape == 1:
        rows[-1] = list(rows[0]) if len(rows) > 1 else [0]
    if rows and shape == 2:
        rows[-1][-1] = 0
    m = Matrix(rows)
    value = m.determinant()
    assert type(value) is int
    assert value == _det_by_permutation_expansion(m)
    if rows and shape == 1:
        assert value == 0


def test_matrix_accessors():
    Matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_matrix_is_square_when_built():
    for rows, lengths in (([[1, 2], [3]], "[2, 1]"), ([[1, 2, 3], [4, 5, 6]], "[3, 3]"),
                          ([[1], [2]], "[1, 1]")):
        with pytest.raises(ValueError, match=re.escape(f"row lengths {lengths}")):
            Matrix(rows)


def test_matrix_defines_no_equality():
    # two matrices are compared by their entries
    assert "__eq__" not in vars(Matrix)
