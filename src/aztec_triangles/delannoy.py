"""Delannoy numbers D(i,j), their H variant, the matrices built from them,
and the half-integer expansion.

``delannoy_D`` is the binomial-sum form, which extends D to any rational
second argument (it is a polynomial in j of degree i).  ``delannoy_H`` is
D(i,j) + D(i-1,j) computed from that extension; on j >= -1 this agrees with
the combinatorial definition (0 for j < 0 except H(0,-1) = 1), while for
j <= -2 it continues H as a polynomial, which the determinant relation
between the two matrix families needs.

``delannoy_D`` reads its second argument as j = p/q in lowest terms, an
``int`` as q = 1, and has one formula for both: an ``int`` numerator over
one common denominator, with a single ``Fraction`` at the end that
``normalize`` turns back into an ``int`` at an integer j.

``lgv_matrix`` and ``staircase_rows`` assemble the LGV and staircase
matrices, and ``lgv_determinant`` counts by the LGV matrix.  They live
here, not in ``paths``, so that a determinant count loads none of the path,
tableau and chain models; ``paths`` still binds ``lgv_matrix``.  The LGV
matrix is the leading block of the nonzero parts, and reads its entries
one by one from ``delannoy_D`` and ``delannoy_H``, an oracle independent
of the staircase builder.  ``staircase_rows`` gives both staircase
matrices, D1(k; n) at any rational n and D2(k; n) at an integer n, as
``int`` rows over row scales, read off one ``int`` table of D(a, n-1-j)
that two recurrences fill (``_delannoy_table``).  At an integer n it is the
LGV matrix of the padded staircase, entry for entry.  Nothing here keeps
state between calls: a caller that looks the same values up again and
again caches them itself.

The brute-force counters walk the step set directly and serve as
independent oracles for the closed forms.
"""

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .exact import Exact, Matrix, as_fraction, normalize
from .partitions import Partition, check_partition


def delannoy_D(i: int, j: Exact) -> Exact:
    """Sum over l of C(i,l) C(j,l) 2^l; counts N/NE/E paths to (i,j) when
    i, j are non-negative integers.  Returns 0 for i < 0.

    With j = p/q in lowest terms (an ``int`` j has q = 1), C(j,l) =
    prod_{m<l} (p - m q) / (q^l l!), so the sum to ``top`` is one ``int``
    numerator over q^top top!, whose term l is
    C(i,l) 2^l prod_{m<l} (p - m q) q^(top-l) top!/l!.  The sum runs to
    top = min(i, j) when j is a non-negative integer, since C(j,l) = 0 past
    j, and to top = i otherwise."""
    j = as_fraction(j)
    if i < 0:
        return 0
    p, q = j.numerator, j.denominator
    top = min(i, p) if q == 1 and p >= 0 else i
    num, falling, tail = 0, 1, factorial(top)  # tail = top!/l!
    for l in range(top + 1):
        num += (comb(i, l) * falling * q ** (top - l) * tail) << l
        falling *= p - l * q
        tail //= l + 1
    return normalize(Fraction(num, q**top * factorial(top)))


def delannoy_H(i: int, j: int) -> int:
    """H(i,j) = D(i,j) + D(i-1,j)."""
    return delannoy_D(i, j) + delannoy_D(i - 1, j)


def lgv_matrix(mu: Partition, case: int) -> Matrix:
    """The leading l x l block of the n x n matrix of single-path counts,
    l the number of nonzero parts of mu; its determinant counts the
    vertex-disjoint families (and hence the chains).

    Entry (a, b) of the full matrix is D(mu_a - a + b, n - b - 1) (H in
    case 2).  For a zero part a >= l that is D(b - a, n - b - 1), which is
    0 for b < a and 1 for b = a (H likewise).  So the full matrix is block
    upper-triangular, its lower-right block is unit upper-triangular, and
    its determinant is that of the leading block.  In path terms, path a is
    the vertical segment x = -a, which no path of a nonzero part reaches.
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    mu = check_partition(tuple(mu))
    n, ell = len(mu), len(mu) - mu.count(0)
    count = delannoy_D if case == 1 else delannoy_H
    return Matrix(
        [[count(mu[a] - a + b, n - b - 1) for b in range(ell)] for a in range(ell)]
    )


def lgv_determinant(mu: Partition, case: int) -> int:
    """det ``lgv_matrix(mu, case)``: the number of vertex-disjoint families.

    Bareiss keeps leading minors as its intermediate entries, and the LGV
    matrix has its largest entries in the top-left corner, where
    ``mu[a] - a + b`` is largest.  So this eliminates the matrix rotated by
    180 degrees, its rows and its columns reversed, whose leading minors are
    small.  The value is unchanged: reversing the rows and reversing the
    columns each multiply the determinant by the sign of the same reversal
    permutation, and the two signs cancel.
    """
    rows = lgv_matrix(mu, case).entries
    return Matrix([row[::-1] for row in reversed(rows)]).determinant()


def staircase_rows(k: int, n: Exact, case: int) -> tuple[list[list[int]], list[int]]:
    """The k x k staircase matrix of mu = (k,...,1,0^(n-k)) as ``int`` rows
    over positive row scales: entry (i, j) is ``rows[i][j] / scales[i]``.

    Entry (i, j) is D(k-2i+j, n-j-1) in case 1, the paper's D1(k; n), with
    the polynomial extension of D, so n may be any rational.  In case 2 it
    is H(k-2i+j, n-j-1) and n must be an integer: the paper's D2(k; n),
    H(2j-i, i+n-k-1) for 1 <= i,j <= k, anti-transposed (its entry (i, j)
    is this one's (k-j, k-i)), which leaves the determinant unchanged.  At
    an integer n, this is ``lgv_matrix`` of the padded staircase.

    Row i reads its entries off ``_delannoy_table(k, n)``.  Its first
    arguments a = k-2i+j are at most 2k-2i-1, so it is lifted to the scale
    c_(2k-2i-1), which every c_a with a smaller a divides (1 at an integer n).
    """
    if case not in (1, 2):
        raise ValueError(f"case must be 1 or 2, got {case}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if case == 2 and isinstance(n, Fraction) and n.denominator != 1:
        raise ValueError("the H matrix is defined for integer n only")
    table, c = _delannoy_table(k, n)
    if case == 2:
        # H(a, y) = D(a, y) + D(a-1, y), with D(-1, y) = 0; every scale is 1
        table = [[x + y for x, y in zip(d, [0, *d])] for d in table]
    scales = [c[2 * k - 2 * i - 1] for i in range(k)]
    rows = [
        [
            table[j][a] * (scale // c[a]) if (a := k - 2 * i + j) >= 0 else 0
            for j in range(k)
        ]
        for i, scale in enumerate(scales)
    ]
    return rows, scales


def _delannoy_table(k: int, n: Exact) -> tuple[list[list[int]], list[int]]:
    """``table[j][a]`` = N[a][j] = D(a, y_j) * c_a as ``int``s, y_j = n-1-j,
    for a = 0..2k-1 and j = 0..k-1, and the scales ``c``.

    ``staircase_rows`` reads entry (i, j) at a = k-2i+j and y_j: D(a, y_j) in
    case 1 and H(a, y_j) = D(a, y_j) + D(a-1, y_j) in case 2.  Both stay
    inside a < 2k and j < k, so this one table serves both.  For n = p/q in
    lowest terms the scale is c_a = f_1 ... f_a with f_a = a q when q > 1,
    and c_a = 1 (f_a = 1) when n is an integer.  Two recurrences fill the
    table, a few ``int`` operations per entry:

    - column 0 by a D(a, y) = (2y+1) D(a-1, y) + (a-1) D(a-2, y), which
      sum_a D(a, y) x^a = (1+x)^y / (1-x)^(y+1) gives; scaled,
      N[a][0] = f_a ((2p-q) N[a-1][0] + (a-1) q f_(a-1) N[a-2][0]) / (a q),
      an exact division;
    - each later column from the one before by
      D(a, y-1) = D(a, y) - D(a-1, y) - D(a-1, y-1); scaled,
      N[a][j+1] = N[a][j] - f_a (N[a-1][j] + N[a-1][j+1]), with
      N[0][j] = 1.

    For each a, both sides of either recurrence are polynomials in y that
    agree at every integer y >= 1, where D counts lattice paths; so each is
    a polynomial identity and holds at every rational y.
    """
    n = as_fraction(n)
    p, q, size = n.numerator, n.denominator, 2 * k
    f = [1] * size if q == 1 else [a * q for a in range(size)]
    c = list(accumulate(f[1:], mul, initial=1))
    column = [1]
    for a in range(1, size):
        # at a = 1, column[a - 2] is column[-1], and its factor a - 1 is 0
        tail = (a - 1) * q * f[a - 1] * column[a - 2]
        column.append(f[a] * ((2 * p - q) * column[a - 1] + tail) // (a * q))
    table = [column]
    for _ in range(1, k):
        prev, column = column, [1]
        for f_a, up, up_left in zip(f[1:], prev[1:], prev):
            column.append(up - f_a * (up_left + column[-1]))
        table.append(column)
    return table, c


def count_D_paths_bruteforce(i: int, j: int) -> int:
    """Count N/NE/E lattice paths from (0,0) to (i,j) by walking the steps."""
    if i < 0 or j < 0:
        raise ValueError("path endpoints must be non-negative")
    return _count_paths(i, j, forbidden=None)


def count_H_paths_bruteforce(i: int, j: int) -> int:
    """Count N/NE/E paths from (0,0) to (i,j+1) avoiding (i-1,j+1)."""
    if i < 0 or j < -1:
        raise ValueError("need i >= 0 and j >= -1")
    return _count_paths(i, j + 1, forbidden=(i - 1, j + 1))


def _count_paths(x: int, y: int, forbidden: tuple[int, int] | None) -> int:
    # Reaches (a,b) from (a-1,b), (a,b-1), (a-1,b-1); the table entry is the
    # number of partial paths ending there.
    table = [[0] * (y + 1) for _ in range(x + 1)]
    for a in range(x + 1):
        for b in range(y + 1):
            if (a, b) == forbidden:
                continue
            if a == 0 and b == 0:
                table[a][b] = 1
                continue
            total = 0
            if a > 0:
                total += table[a - 1][b]
            if b > 0:
                total += table[a][b - 1]
            if a > 0 and b > 0:
                total += table[a - 1][b - 1]
            table[a][b] = total
    return table[x][y]


def half_shift_expansion(i: int, j: int) -> Exact:
    """The sum over l of (-1)^l C(-1/2,l) H(i-2l, j), which expands
    D(i, j+1/2) in H values; ``verify.suite_delannoy`` checks the two agree."""
    if i < -1 or j < -1:
        raise ValueError("need i >= -1 and j >= -1")
    # (-1)^l C(-1/2,l) = C(2l,l)/4^l: sum in int over the denominator 4^top
    top = (i + 1) // 2
    num = sum(comb(2 * l, l) * 4 ** (top - l) * delannoy_H(i - 2 * l, j)
              for l in range(top + 1))
    return normalize(Fraction(num, 4**top))
