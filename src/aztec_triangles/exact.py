"""Exact integer/rational arithmetic: extended binomials, shifted factorials
and fraction-free determinants of integer matrices.

Every value is an ``int`` or a ``fractions.Fraction``; nothing here ever
rounds.  ``ratio`` is the one place a quotient is built: an ``int`` when
the division is exact, so that counts print and compare as plain integers,
and otherwise a ``Fraction``.  ``fractions`` (which loads ``decimal``) is
imported at the first value that is not an integer, so an integer count
never loads it.

``pq`` is the one reader of an exact argument: it gives x = p/q in lowest
terms, an ``int`` as q = 1, and refuses a float.  ``pochhammer`` takes every
integer index: an ``int`` product over q^i, or q^m over an ``int`` product
at i = -m < 0.  ``binomial`` is a ``pochhammer`` over l!.
``Matrix`` is square; its ``determinant`` takes ``int`` entries only and
eliminates in ``int`` arithmetic, turned 180 degrees so that Bareiss keeps
an LGV matrix's small minors.  A caller with rational entries scales each
row to integers itself (``delannoy.staircase_rows`` builds its rows that
way) and divides the determinant by the product of the scales.
"""

from math import factorial, prod

# int | fractions.Fraction, for annotations only: a string, so that this
# module imports no fractions
Exact = "int | Fraction"

_Fraction = None  # fractions.Fraction once ratio has built one


def ratio(num: int, den: int) -> Exact:
    """num/den: the ``int`` quotient when den divides num, else a
    ``Fraction``, the first of which imports ``fractions``."""
    value, rest = divmod(num, den)
    if not rest:
        return value
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(num, den)


def pq(x: Exact) -> tuple[int, int]:
    """Read x as p/q in lowest terms with q > 0 (an ``int`` has q = 1),
    refusing floats (exactness would be lost), strings and Decimals: any
    value but an ``int`` must carry its own numerator and denominator."""
    if type(x) is int:
        return x, 1
    try:
        return x.numerator, x.denominator
    except AttributeError:
        raise TypeError(f"exact rational required, got {type(x).__name__}") from None


def binomial(x: Exact, l: int) -> Exact:
    """Extended binomial coefficient x(x-1)...(x-l+1)/l! = (x-l+1)_l / l!,
    and 0 for l < 0; ``x`` may be any rational."""
    if l < 0:
        return 0
    p, q = pq(pochhammer(x - l + 1, l))
    return ratio(p, q * factorial(l))


def pochhammer(x: Exact, i: int) -> Exact:
    """Shifted (rising) factorial (x)_i = x(x+1)...(x+i-1), with (x)_0 = 1,
    at every integer i: (x)_(-m) = 1/(x-m)_m.

    With x = p/q in lowest terms the value is the ``int`` product
    prod_{0<=a<i} (p + a q) over q^i, and for i = -m < 0 it is q^m over
    prod_{-m<=a<0} (p + a q), where a zero factor is a pole and raises
    ``ZeroDivisionError``.  An integral value is returned as an ``int``.
    """
    p, q = pq(x)
    if i >= 0:
        num, den = prod(range(p, p + i * q, q)), q**i
    else:
        num, den = q**-i, prod(range(p + i * q, p, q))
    return ratio(num, den)


class Matrix:
    """Square matrix; its ``determinant`` takes ``int`` entries only."""

    __slots__ = ("nrows", "entries")

    def __init__(self, rows):
        self.entries = tuple(tuple(row) for row in rows)
        self.nrows = len(self.entries)
        if any(len(row) != self.nrows for row in self.entries):
            raise ValueError(f"not square: row lengths {[*map(len, self.entries)]}")

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

    def determinant(self) -> int:
        """Exact determinant of an ``int`` matrix by fraction-free (Bareiss)
        elimination.

        Bareiss keeps leading minors as its intermediate entries.  Row a of
        an LGV matrix reads D(mu_a - a + b, n - b - 1), and mu_a - a falls
        with a, so its bottom-right minors are the small ones (a staircase
        matrix's too at n >= k).  So it eliminates the matrix turned 180
        degrees, its rows and each row read in reverse.  Reversing the rows
        and reversing the columns each multiply the determinant by the sign
        of the same permutation, so the value is unchanged.

        Pivots on the first nonzero entry of each column, swapping rows with
        sign tracking; an all-zero column short-circuits to 0.  The 0x0
        determinant is 1.  Each Bareiss quotient is exact (Sylvester's
        identity) and divides with ``//``.  Any entry that is not an
        ``int`` raises ``TypeError``.
        """
        n = self.nrows
        for row in self.entries:
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"int entries required, got {type(x).__name__}")
        if n == 0:
            return 1
        a = [list(reversed(row)) for row in reversed(self.entries)]
        sign = 1
        prev = 1
        for r in range(n - 1):
            pivot_row = next((i for i in range(r, n) if a[i][r] != 0), None)
            if pivot_row is None:
                return 0
            if pivot_row != r:
                a[r], a[pivot_row] = a[pivot_row], a[r]
                sign = -sign
            for i in range(r + 1, n):
                for j in range(r + 1, n):
                    a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
            prev = a[r][r]
        return sign * a[n - 1][n - 1]
