"""Closed-form product formulas for staircase shapes mu = (k,...,1,0^(n-k)).

``product_case1``/``product_case2`` evaluate the two chain-count products
(the Case 2 one is the Case 1 one at ell + 1, i.e. n -> n + 1/2).
``product_main`` is the fully factored form valid for arbitrary rational n,
whose value at integers matches product_case1; it is a polynomial in n whose
top coefficient, ``leading_coefficient(k)``, is defined here once.
``df_formula`` is the size-n Aztec triangle count F(n), checked against
``g_formula``, G(n), which is ``product_case1`` at k = n, ell = 2n.

All index ranges are written with their explicit floor bounds; the "products
over all i >= 0" are finite only because later factor ranges are empty.
"""

from fractions import Fraction
from math import factorial, prod

from .errors import IdentityError
from .exact import Exact, as_fraction, normalize, pochhammer


def product_case1(k: int, ell: int) -> int:
    """Number of Case 1 chains for mu = (k,...,1,0^(n-k)) with ell = 2n: an
    ``int`` product over prod (2i+1)^(k-i), which must divide it."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if ell < 2 * k:
        raise ValueError(f"need ell >= 2k, got ell={ell}, k={k}")
    num = 1
    for i in range((k + 1) // 2):  # ell + s for s in [-2k+4i+1, -k+2i]
        num *= pochhammer(ell - 2 * k + 4 * i + 1, k - 2 * i)
    for i in range(k // 2):  # ell + s for s in [k-2i, 2k-4i-2]
        num *= pochhammer(ell + k - 2 * i, k - 2 * i - 1)
    den = prod((2 * i + 1) ** (k - i) for i in range(1, k))
    value, rest = divmod(num, den)
    if rest or value < 0:
        raise IdentityError(f"case 1 product not a count at k={k}, ell={ell}: {num}/{den}")
    return value


def product_case2(k: int, n: int) -> int:
    """Number of Case 2 chains for mu = (k,...,1,0^(n-k)): the Case 1
    product at ell = 2n + 1, i.e. with n replaced by n + 1/2."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    return product_case1(k, 2 * n + 1)


def leading_coefficient(k: int) -> Exact:
    """2^(k^2) / prod_(i=1..k) (i)_i, the top coefficient of det D1(k; n)
    and of ``product_main(k, n)``."""
    den = prod(pochhammer(i, i) for i in range(1, k + 1))
    return normalize(Fraction(2 ** (k * k), den))


def product_main(k: int, n: Exact) -> Exact:
    """The factored determinant formula, a polynomial in n of degree
    k(k+1)/2 with leading coefficient ``leading_coefficient(k)``."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    n = as_fraction(n)
    p, q = n.numerator, n.denominator
    # n - s - 1 = (p - (s+1)q)/q and n - s - 1/2 = (2p - (2s+1)q)/(2q), and
    # likewise for the n + k - s - ... factors
    even, odd = 1 - k % 2, k % 2
    num = den = 1
    for s in range(k - 1):
        e = min((s + 1 + even) // 2, (k - s) // 2)
        num *= (p - (s + 1) * q) ** e
        den *= q**e
    for s in range(k):
        e = min((s + 1 + odd) // 2, (k - s + 1) // 2)
        num *= (2 * p - (2 * s + 1) * q) ** e
        den *= (2 * q) ** e
    for s in range(k - 1):
        e = min((s + 2) // 2, (k - s - odd) // 2)
        num *= (p + (k - s - 1) * q) ** e
        den *= q**e
    for s in range(1, k - 1):
        e = min((s + 1) // 2, (k - s - even) // 2)
        num *= (2 * p + (2 * k - 2 * s - 1) * q) ** e
        den *= (2 * q) ** e
    return normalize(leading_coefficient(k) * Fraction(num, den))


def df_formula(n: int) -> int:
    """Count of domino tilings of the size-n Aztec triangle,
    F(n) = 2^(n(n-1)/2) prod (4i+2)!/(n+2i+1)!; checked against G(n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    value = Fraction(2) ** (n * (n - 1) // 2)
    for i in range(n):
        value *= Fraction(factorial(4 * i + 2), factorial(n + 2 * i + 1))
    value = normalize(value)
    other = g_formula(n)
    if value != other:
        raise IdentityError(f"F({n}) = {value} but G({n}) = {other}")
    return value


def g_formula(n: int) -> int:
    """G(n): the Case 1 staircase product at k = n, ell = 2n, mu = (n,...,1),
    whose factor ranges become (4i+1)_(n-2i) and (3n-2i)_(n-2i-1)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return product_case1(n, 2 * n)
