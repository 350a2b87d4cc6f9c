"""Every shape's count is a polynomial in the number of parts, whose top two
coefficients Aitken's determinant gives.

For a shape lam with l nonzero parts and d = |lam|, the count
P(n) = ``lgv_determinant(lam + 0^(n-l), case)`` is a polynomial of degree d
in n.  Entry (i, j) of the LGV matrix is (2^a/a!)(x - j)^a + O(x^(a-2)),
a = lam_i - i + j, with x = n - 1/2 in case 1 and x = n in case 2, so the
x^d coefficient is 2^d det[1/(lam_i - i + j)!] = 2^d / H_lam (the hook
length formula), and the x^(d-1) coefficient is 0.  In n, the top
coefficient a_d is 2^d / H_lam and the next is -(d/2) a_d in case 1 and 0
in case 2.  Integer forward differences of P at n = l .. l+d+1 decide all
three facts.
"""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from aztec_triangles.delannoy import lgv_determinant
from aztec_triangles.formulas import leading_coefficient


def partitions(total, largest):
    """Every partition of ``total`` with parts at most ``largest``."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in partitions(total - first, first):
            yield (first, *rest)


def hook_product(lam):
    """H_lam, the product of the hook lengths of lam's cells."""
    conjugate = [sum(part > j for part in lam) for j in range(lam[0] if lam else 0)]
    return prod(
        lam[i] - j + conjugate[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )


def top_coefficients(lam, case):
    """(a_d, a_(d-1)) of P, after checking that P has degree at most d."""
    ell, d = len(lam), sum(lam)
    diffs = [lgv_determinant(lam + (0,) * m, case) for m in range(d + 2)]
    at_ell = []  # Delta^r P(l) for r = 0 .. d+1
    while diffs:
        at_ell.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert at_ell[d + 1] == 0, (lam, case)
    top = Fraction(at_ell[d], factorial(d))
    if d == 0:
        return top, 0
    # Delta^(d-1) P(x) = a_d d! (x + (d-1)/2) + a_(d-1) (d-1)!
    rest = at_ell[d - 1] - top * factorial(d) * (ell + Fraction(d - 1, 2))
    return top, rest / factorial(d - 1)


def check_aitken(lam, case):
    d = sum(lam)
    top, second = top_coefficients(lam, case)
    assert top == Fraction(2**d, hook_product(lam)), (lam, case)
    assert second == (-Fraction(d, 2) * top if case == 1 else 0), (lam, case)
    return top


def test_hook_product_examples():
    assert hook_product(()) == 1
    assert hook_product((3, 2, 1)) == 5 * 3 * 1 * 3 * 1 * 1
    assert hook_product((2, 2)) == 3 * 2 * 2 * 1
    assert [sum(1 for _ in partitions(t, t)) for t in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]


@pytest.mark.parametrize("case", [1, 2])
def test_every_small_shape(case):
    shapes = [lam for total in range(13) for lam in partitions(total, total)]
    assert len(shapes) == 272
    for lam in shapes:
        check_aitken(lam, case)


@pytest.mark.parametrize("case", [1, 2])
def test_staircases(case):
    # at a staircase the top coefficient is also det D1(k; n)'s
    for k in range(1, 16):
        assert check_aitken(tuple(range(k, 0, -1)), case) == leading_coefficient(k)


@pytest.mark.parametrize("case", [1, 2])
def test_seeded_shapes(case):
    rng, shapes = random.Random(14), []
    while len(shapes) < 30:
        lam = tuple(sorted((rng.randint(1, 14) for _ in range(rng.randint(3, 10))),
                           reverse=True))
        if sum(lam) <= 80:
            shapes.append(lam)
    for lam in shapes:
        check_aitken(lam, case)
