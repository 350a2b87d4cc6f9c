"""Exact integer/rational arithmetic: extended binomials, shifted factorials
and fraction-free determinants of integer matrices.

Every value is an ``int`` or a ``fractions.Fraction``; nothing here ever
rounds.  Results with denominator 1 are normalized back to ``int`` so that
counts print and compare as plain integers.

``binomial`` reads its argument as x = p/q in lowest terms, an ``int`` as
q = 1, and has one formula: an ``int`` product over q^l l!.  ``pochhammer``
is one product too: for an ``int`` x it stays in ``int`` arithmetic.
``Matrix.determinant`` takes ``int`` entries only and eliminates in ``int``
arithmetic.  A caller with rational entries scales each row to integers
itself (``delannoy.staircase_rows`` builds its rows that way) and divides
the determinant by the product of the scales.
"""

from fractions import Fraction
from math import factorial, prod

Exact = int | Fraction


def normalize(x: Exact) -> Exact:
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def as_fraction(x: Exact) -> Fraction:
    """Coerce to Fraction, refusing floats (exactness would be lost)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"exact rational required, got {type(x).__name__}")


def binomial(x: Exact, l: int) -> Exact:
    """Extended binomial coefficient x(x-1)...(x-l+1)/l!, and 0 for l < 0.

    ``x`` may be any rational p/q in lowest terms (an ``int`` x has q = 1):
    the value is the ``int`` product prod_{m<l} (p - m q) over q^l l!.
    """
    if l < 0:
        return 0
    x = as_fraction(x)
    p, q = x.numerator, x.denominator
    return normalize(Fraction(prod(p - m * q for m in range(l)), q**l * factorial(l)))


def pochhammer(x: Exact, i: int) -> Exact:
    """Shifted (rising) factorial (x)_i = x(x+1)...(x+i-1), with (x)_0 = 1.

    An ``int`` x stays in ``int`` arithmetic and never builds a ``Fraction``.
    """
    if i < 0:
        raise ValueError(f"pochhammer index must be non-negative, got {i}")
    if not isinstance(x, (int, Fraction)):
        as_fraction(x)  # raises: a float is not exact
    return normalize(prod(x + a for a in range(i)))


class Matrix:
    """Rectangular matrix of exact rationals."""

    __slots__ = ("nrows", "entries")

    def __init__(self, rows):
        self.entries = tuple(tuple(row) for row in rows)
        self.nrows = len(self.entries)
        if any(len(r) != len(self.entries[0]) for r in self.entries):
            raise ValueError("matrix rows have unequal lengths")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]!r})"

    def determinant(self) -> int:
        """Exact determinant of an ``int`` matrix by fraction-free (Bareiss)
        elimination.

        Pivots on the first nonzero entry of each column, swapping rows with
        sign tracking; an all-zero column short-circuits to 0.  The 0x0
        determinant is 1.  Each Bareiss quotient is exact (Sylvester's
        identity) and divides with ``//``.  Any entry that is not an
        ``int`` raises ``TypeError``.
        """
        n = self.nrows
        if any(len(row) != n for row in self.entries):
            raise ValueError(f"determinant of {n}x{len(self.entries[0])} matrix")
        for row in self.entries:
            for x in row:
                if type(x) is not int:
                    raise TypeError(f"int entries required, got {type(x).__name__}")
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
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
                a[i][r] = 0
            prev = a[r][r]
        return sign * a[n - 1][n - 1]
