from fractions import Fraction

import pytest

from aztec_triangles.formulas import (
    df_formula,
    g_formula,
    product_case1,
    product_case2,
    product_main,
)
from aztec_triangles.delannoy import lgv_determinant


def staircase(k, n):
    return tuple(range(k, 0, -1)) + (0,) * (n - k)


def test_case1_examples():
    assert product_case1(1, 2) == 1
    assert product_case1(2, 4) == 4
    assert product_case1(3, 6) == 60


def test_case2_examples():
    assert product_case2(1, 2) == 4
    assert product_case2(1, 1) == 2


def test_preconditions():
    with pytest.raises(ValueError):
        product_case1(0, 2)
    with pytest.raises(ValueError):
        product_case1(2, 3)
    with pytest.raises(ValueError):
        product_case2(2, 1)
    with pytest.raises(ValueError):
        product_main(-1, 2)
    with pytest.raises(ValueError):
        df_formula(0)


def test_case2_is_case1_at_half_shift():
    # the Case 2 count is the Case 1 product at n + 1/2, where the factored
    # form product_main is an independent formula
    for k in range(1, 9):
        for n in range(k, k + 6):
            assert product_case2(k, n) == product_main(k, n + Fraction(1, 2)), (k, n)


def test_products_match_counts():
    # padded staircases (k,...,1,0^(n-k)), then every plain staircase up to
    # k = 60
    shapes = [(k, n) for k in range(1, 9) for n in range(k, k + 4)]
    shapes += [(k, k) for k in range(9, 61)]
    for k, n in shapes:
        mu = staircase(k, n)
        assert product_case1(k, 2 * n) == lgv_determinant(mu, 1), (k, n)
        assert product_case2(k, n) == lgv_determinant(mu, 2), (k, n)


def test_main_examples():
    assert product_main(1, 3) == 5
    assert product_main(2, 2) == 4
    assert product_main(0, 12) == 1
    assert product_main(0, Fraction(-7, 3)) == 1
    # k = 2 factors as (8/3)(n-1)(n-3/2)(n+1)
    n = Fraction(9, 4)
    assert product_main(2, n) == Fraction(8, 3) * (n - 1) * (n - Fraction(3, 2)) * (n + 1)


def test_main_agrees_with_case1_products():
    for k in range(1, 5):
        for n in range(k, 8):
            assert product_main(k, n) == product_case1(k, 2 * n)


def test_df_examples():
    assert df_formula(1) == 1
    assert df_formula(2) == 4
    assert df_formula(4) == 3328
    assert [df_formula(n) for n in range(1, 6)] == [1, 4, 60, 3328, 678912]


def test_df_equals_g():
    for n in range(1, 9):
        assert df_formula(n) == g_formula(n)


def test_df_equals_staircase_product():
    for n in range(1, 6):
        assert df_formula(n) == product_case1(n, 2 * n)
