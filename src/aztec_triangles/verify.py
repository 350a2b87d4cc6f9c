"""Exact zero-tests scaffolding the determinant evaluation.

Steps 1-4 check that explicit column/row combinations of the staircase
matrix vanish at the roots the factored formula predicts; they are the
linear relations behind each factor's exponent.  The two double-sum
identities are the closed forms those relations reduce to.  Everything here
is an exact equality of rationals; there are no tolerances.

The checks on the staircase matrices D1(k; n) and D2(k; n) (steps 1-4,
``detprop``, ``main``, ``degree``) read them as ``staircase_rows`` gives
them: ``int`` rows over positive row scales.  So a kernel step's residual,
a combination of entries, is an ``int`` sum over a positive scale (the
row's scale for steps 1 and 2; for steps 3 and 4 one common denominator W
of the weights over their rows' scales), and it is zero exactly when that
``int`` sum is.  Every determinant is read through ``_staircase_det``: the
``int`` rows' determinant over the product of the scales.  Every check
looks ``staircase_rows`` up in this module when it runs, so a test can put
a stand-in there.

Step 3 note: the first sum carries (-1)^(i-a), not (-1)^i; expanding the
alternating binomial sum produces a global (-1)^a that has to cancel
against the unsigned tail sum, and the worked (k,s,a) = (4,2,1) instance
confirms that relative sign.

Step 4 has two root families, n = -k+2s-1/2+t with t = 0 ("odd": row
weights c1, identity id1) and t = 1 ("even": c2, id2).  One function of t
serves both; t shifts the Pochhammer arguments and indices, the powers of
two, the signs and the bounds.  The factored polynomial
(k-2s+1-t)^2 - (2r-1+t)^2 - l^2 in the double sum equals both expanded ones:
k^2+2k+4r-4r^2-4s-4ks+4s^2 - l^2 at t = 0 and k^2-4r^2-4ks+4s^2 - l^2 at t = 1.
"""

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm, prod

from .delannoy import (
    count_D_paths_bruteforce, count_H_paths_bruteforce, delannoy_D, delannoy_H,
    half_shift_expansion, lgv_determinant, staircase_rows,
)
from .exact import Exact, Matrix, binomial, normalize, pochhammer
from .formulas import leading_coefficient, product_main

_HALF = Fraction(1, 2)


def _poch_signed(x: Exact, n: int) -> Fraction:
    """Shifted factorial extended to negative index by (x)_(-m) = 1/(x-m)_m."""
    return Fraction(pochhammer(x, n)) if n >= 0 else 1 / Fraction(pochhammer(x + n, -n))


def _inv_factorial(m: int) -> Fraction:
    """1/m!, taken to vanish at negative integers."""
    return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)


def _record(suite, params, passed, residual=None) -> dict:
    """One verify record, the schema of every suite:
    ``{"suite", "params", "pass"[, "residual"]}``.

    ``residual`` is kept only on a failing record.  A kernel step passes a
    list of strings, one per row or column it combines; ``id1``/``id2`` pass
    one string, the identity's value.
    """
    rec = {"suite": suite, "params": params, "pass": bool(passed)}
    if residual is not None and not passed:
        rec["residual"] = residual
    return rec


# Where each kernel step is legal, as a predicate on (k, s, a);
# ``step_parameter_grid`` reads it.
_LEGAL = {
    ("step1", None): lambda k, s, a: (
        0 <= a <= s and k >= 2 * s - a + 2 and (k - a) % 2 == 0
    ),
    ("step2", None): lambda k, s, a: (
        0 <= a <= s and k >= 2 * s - a + 1 and (k - a) % 2 == 1
    ),
    ("step3", None): lambda k, s, a: 0 <= 2 * a <= s and k >= 2 * s - 2 * a + 2,
    ("step4", "odd"): lambda k, s, a: 0 <= a < s and k >= 4 * s - 2 * a - 1,
    ("step4", "even"): lambda k, s, a: 0 <= a < s and k >= 4 * s - 2 * a + 1,
}


def _staircase_det(k: int, n: Exact, case: int) -> Exact:
    """det D1(k; n) (case 1) or det D2(k; n) (case 2): the determinant of
    ``staircase_rows``'s ``int`` rows over the product of their scales."""
    rows, scales = staircase_rows(k, n, case)
    return normalize(Fraction(Matrix(rows).determinant(), prod(scales)))


def _kernel_step(step: str, variant, k: int, s: int, a: int, d1, coeff) -> dict:
    """Combine the columns (steps 1, 2) or rows (steps 3, 4) of D1(k; n) at
    the step's root n, whose ``int`` rows and scales ``d1(k, n)`` gives;
    ``coeff(s, l, t)`` gives step 4's row weights (``_coeff`` or a cache of
    it).  It passes when every combination is 0.  (step, variant, k, s, a)
    must be a point of ``step_parameter_grid``."""
    params = {"k": k, "s": s, "a": a}
    if step == "step1":
        (rows, scales), top = d1(k, s + 1), 2 * s - 2 * a + 1
    elif step == "step2":
        (rows, scales), top = d1(k, s + _HALF), 2 * s - 2 * a
    elif step == "step3":
        # an alternating head over rows a..s+1-a minus a power-of-two tail
        # over rows s+1-a..k-1; the two share row s+1-a
        (rows, scales), tail = d1(k, -k + s + 1), 2 ** (2 * s + 2 - 4 * a)
        weights = [
            ((-1) ** (i - a) * comb(s + 1 - 2 * a, i - a), i)
            for i in range(a, s + 2 - a)
        ]
        weights += [
            (-tail * comb(i - a - 1, s - 2 * a), i) for i in range(s + 1 - a, k)
        ]
    else:
        t = int(variant == "even")
        rows, scales = d1(k, -k + 2 * s - _HALF + t)
        weights = [(coeff(s - a, i - a, t), i) for i in range(a, k)]
        params["variant"] = variant
    if step in ("step1", "step2"):  # each row over columns a..a+top
        cols = [(comb(top, j - a), j) for j in range(a, a + top + 1)]
        sums = [sum(w * row[j] for w, j in cols) for row in rows]
    else:
        # each column over the weighted rows: the weights w_i / scales[i]
        # over one common denominator W are ints
        dens = [w.denominator * scales[i] for w, i in weights]
        common = lcm(*dens)
        lifted = [(w.numerator * (common // d), i) for (w, i), d in zip(weights, dens)]
        sums = [sum(w * rows[i][j] for w, i in lifted) for j in range(k)]
        scales = [common] * k
    passed = not any(sums)
    residual = None if passed else [
        str(normalize(Fraction(x, c))) for x, c in zip(sums, scales)
    ]
    return _record(step, params, passed, residual)


def _head(s: int, l: int, t: int) -> Fraction:
    """The term of c1(s, l) (t = 0) or c2(s, l) (t = 1) outside the sum
    over r; the outer factor of id1 or id2."""
    return (
        Fraction((4 * l - 4 * s + 1 - 2 * t) * (-1) ** (s - 1))
        * pochhammer(1 - l, s - 1)
        * _poch_signed(_HALF, s + t)
        * _poch_signed(_HALF, l - s - t)
        / ((2 * l - 4 * s + 1 - 2 * t) * factorial(l) * factorial(s - 1))
    )


def _coeff(s: int, l: int, t: int) -> Fraction:
    """Step 4's row weight c1(s, l) (t = 0) or c2(s, l) (t = 1)."""
    tail = Fraction(0)
    for r in range(1, s + 1):
        x = 2 * r - _HALF + t
        tail += (
            Fraction(2) ** (4 * r - 3 + 2 * t)
            * _poch_signed(x, s - r)
            * _poch_signed(x, l - s - r - t)
            * _inv_factorial(l - s - r + 1 - t)
            / factorial(s - r)
        )
    return (-1) ** (1 - t) * _head(s, l, t) - (4 * l - 4 * s + 1 - 2 * t) * tail


def _double_sum(k: int, s: int, t: int) -> Exact:
    """id1 (t = 0) or id2 (t = 1)."""
    if not (s >= 1 and k >= 4 * s - 1 + 2 * t):
        raise ValueError(f"illegal id{1 + t} parameters {(k, s)}")
    # the first sum is sum_i head(s, i, t) D(k-2i, x); D(a, x) = 0 for a < 0
    x = -k + 2 * s - Fraction(3, 2) + t
    total = sum(_head(s, i, t) * delannoy_D(k - 2 * i, x) for i in range(k))
    for r in range(1, s + 1):
        front = (
            Fraction((-1) ** (k - t))
            * Fraction(2) ** (4 * r - 3 + 2 * t)
            * _poch_signed(2 * r - _HALF + t, s - r)
            / factorial(s - r)
        )
        # l runs to p; the terms carry (p-1)!/(p-l)! and (q-1)!/(q-l)!
        p, q = k - 2 * r - 2 * s + 2 - 2 * t, k + 2 * r - 2 * s
        for l in range(p + 1):
            total += (
                front
                * Fraction(2) ** (p + 1 - l)
                * factorial(p - 1)
                * factorial(q - 1)
                / (factorial(l) ** 2 * factorial(p - l) * factorial(q - l))
                * ((k - 2 * s + 1 - t) ** 2 - (2 * r - 1 + t) ** 2 - l**2)
            )
    return normalize(total)


def check_id1(k: int, s: int) -> Exact:
    """The double-sum identity behind step 4's odd variant; must evaluate
    to exactly 0."""
    return _double_sum(k, s, 0)


def check_id2(k: int, s: int) -> Exact:
    """The double-sum identity behind step 4's even variant; must evaluate
    to exactly 0."""
    return _double_sum(k, s, 1)


def check_detprop(k: int, n: int) -> bool:
    """det D1(k; n+1/2) = det D2(k; n)."""
    return _staircase_det(k, n + _HALF, 1) == _staircase_det(k, n, 2)


def check_main(k: int, n: Exact) -> bool:
    """det D1(k; n) equals the factored product, exactly."""
    return _staircase_det(k, n, 1) == product_main(k, n)


def check_degree_and_leading(k: int) -> bool:
    """det D1(k; n) has degree top = k(k+1)/2 and top coefficient
    ``leading_coefficient(k)``.

    A polynomial f of degree <= d has Delta^(d+1) f = 0 and x^d coefficient
    Delta^d f(0) / d!, so the integer forward differences of f(0..top+1)
    decide both.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    top = k * (k + 1) // 2
    diffs = [_staircase_det(k, x, 1) for x in range(top + 2)]
    for _ in range(top):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    low, high = diffs  # Delta^top f(0), Delta^top f(1)
    return high == low and Fraction(low, factorial(top)) == leading_coefficient(k)


_GAMMA6_CORE = (
    (425613, 0, 0),
    (518672, 1, 0),
    (230896, 2, 0),
    (44800, 3, 0),
    (3200, 4, 0),
    (-1084280, 0, 1),
    (-946880, 1, 1),
    (-272128, 2, 1),
    (-25600, 3, 1),
    (1048112, 0, 2),
    (590336, 1, 2),
    (82432, 2, 2),
    (-387328, 0, 3),
    (-96256, 1, 3),
    (4096, 2, 3),
    (-44288, 0, 4),
    (-45056, 1, 4),
    (-4096, 2, 4),
    (67584, 0, 5),
    (16384, 1, 5),
    (-12288, 0, 6),
)


def gamma6_irreducible_factor(k: int, s: int) -> int:
    """The large factor of the order-6 recurrence's leading coefficient;
    every non-constant monomial has an even coefficient, so it is odd."""
    return sum(c * k**ek * s**es for c, ek, es in _GAMMA6_CORE)


def gamma6_value(k: int, s: int) -> int:
    linear = (
        (k + 6)
        * (k - 4 * s + 7)
        * (2 * k - 4 * s + 7)
        * (2 * k - 4 * s + 11)
        * (2 * k - 4 * s + 13)
        * (k - 2 * s + 3)
        * (k - 2 * s + 4)
        * (k - 2 * s + 6)
    )
    return linear * gamma6_irreducible_factor(k, s)


def check_gamma6(k: int, s: int) -> bool:
    """The recurrence's leading coefficient does not vanish on k >= 4s-1."""
    if not (s >= 1 and k >= 4 * s - 1):
        raise ValueError(f"illegal gamma6 parameters {(k, s)}")
    return gamma6_value(k, s) != 0


# ---------------------------------------------------------------------------
# Suites: machine-readable parameter sweeps used by the CLI and the
# acceptance tests; every record is built by ``_record``.
# ---------------------------------------------------------------------------


def step_parameter_grid(kmax: int):
    """All legal (step, k, s, a, variant) with k <= kmax; variant is None
    except at step 4."""
    for k in range(0, kmax + 1):
        for s in range(0, k + 1):
            for a in range(0, s + 1):
                for (step, variant), legal in _LEGAL.items():
                    if legal(k, s, a):
                        yield (step, k, s, a, variant)


def suite_kernels(kmax: int = 8) -> list[dict]:
    # The steps at one (k, s) share their roots n, and no other (k, s) has
    # those roots, so each D1(k; n) is built once and kept for that (k, s).
    # Step 4's weights depend only on (s - a, i - a, t) and are kept for the
    # whole call.
    d1, coeff = cache(lambda k, n: staircase_rows(k, n, 1)), cache(_coeff)
    records, at = [], None
    for step, k, s, a, variant in step_parameter_grid(kmax):
        if (k, s) != at:
            at = (k, s)
            d1.cache_clear()
        records.append(_kernel_step(step, variant, k, s, a, d1, coeff))
    return records


def suite_delannoy(limit: int = 20) -> list[dict]:
    # the identities look the same values up again and again, for this call
    D, H = cache(delannoy_D), cache(delannoy_H)

    def square(lo, hi):
        return [(i, j) for i in range(lo, hi + 1) for j in range(lo, hi + 1)]

    grid = square(0, limit)
    i_from_1 = [(i, j) for i in range(1, limit + 1) for j in range(limit + 1)]
    # (identity, grid label, points, predicate): the record passes when the
    # predicate holds at every point, checked in order up to the first miss;
    # a row with no points checks nothing and gives no record
    rows = [
        ("D = D(i-1,j) + H(i,j-1)", limit, grid,
         lambda i, j: D(i, j) == D(i - 1, j) + H(i, j - 1)),
        ("D = sum_l H(l,j-1)", limit, grid,
         lambda i, j: D(i, j) == sum(H(l, j - 1) for l in range(i + 1))),
        ("D = binomial sum (path count)", limit, square(0, min(limit, 12)),
         lambda i, j: D(i, j) == count_D_paths_bruteforce(i, j)),
        ("H recurrence", limit, grid,
         lambda i, j: H(i, j) == H(i - 1, j) + H(i, j - 1) + H(i - 1, j - 1)),
        ("H = 2 sum_l D(l,i-1), i >= 1", limit, i_from_1,
         lambda i, j: H(i, j) == 2 * sum(D(l, i - 1) for l in range(j + 1))),
        ("H(0,j) = 1", limit, [(0, j) for j in range(-1, limit + 1)],
         lambda i, j: H(i, j) == 1),
        ("H binomial sum, i >= 1", limit, i_from_1,
         lambda i, j: H(i, j) == sum(
             comb(i - 1, l - 1) * comb(j + 1, l) * 2**l
             for l in range(1, i + 1)
         )),
        ("H path count", 12, square(0, 12),
         lambda i, j: H(i, j) == count_H_paths_bruteforce(i, j)),
        ("recurrence for extended D", "[-3,12]^2", square(-3, 12),
         lambda i, j: D(i, j) == D(i - 1, j) + D(i - 1, j - 1) + D(i, j - 1)),
        ("D(i,-1/2) base case", limit, [(i, -_HALF) for i in range(limit + 1)],
         lambda i, j: D(i, j) == (0 if i % 2 else abs(binomial(-_HALF, i // 2)))),
        ("half-shift expansion", "[-1,12]^2", square(-1, 12),
         lambda i, j: half_shift_expansion(i, j) == D(i, j + _HALF)),
    ]
    return [
        _record(
            "delannoy",
            {"identity": identity, "grid": label},
            all(holds(i, j) for i, j in points),
        )
        for identity, label, points, holds in rows
        if points
    ]


def _id_sweep(t: int, kmax: int | None) -> list[dict]:
    """id1 (t = 0) or id2 (t = 1) over s = 1..3, k = 4s-1+2t..max(4s+6, kmax)."""
    check, name = (check_id2, "id2") if t else (check_id1, "id1")
    out = []
    for s in range(1, 4):
        hi = max(4 * s + 6, kmax) if kmax is not None else 4 * s + 6
        for k in range(4 * s - 1 + 2 * t, hi + 1):
            value = check(k, s)
            out.append(_record(name, {"k": k, "s": s}, value == 0, str(value)))
    return out


def suite_id1(kmax: int | None = None) -> list[dict]:
    out = _id_sweep(0, kmax)
    for s in range(1, 5):
        for k in range(4 * s - 1, 21):
            ok = check_gamma6(k, s) and gamma6_irreducible_factor(k, s) % 2 == 1
            out.append(_record("id1", {"check": "gamma6", "k": k, "s": s}, ok))
    return out


def suite_id2(kmax: int | None = None) -> list[dict]:
    return _id_sweep(1, kmax)


def suite_detprop(kmax: int = 6) -> list[dict]:
    return [
        _record("detprop", {"k": k, "n": n}, check_detprop(k, n))
        for k in range(kmax + 1)
        for n in range(-3, 7)
    ]


def suite_main(kmax: int = 5) -> list[dict]:
    points = [Fraction(n) for n in range(-2, 7)]
    points += [Fraction(2 * h + 1, 2) for h in range(-2, 6)]  # -3/2 .. 11/2
    out = []
    for k in range(kmax + 1):
        for n in points:
            out.append(
                _record("main", {"k": k, "n": str(normalize(n))}, check_main(k, n))
            )
    return out


def suite_degree(kmax: int = 4) -> list[dict]:
    return [
        _record("degree", {"k": k}, check_degree_and_leading(k))
        for k in range(1, kmax + 1)
    ]


def suite_case12(kmax: int = 4) -> list[dict]:
    out = []
    for k in range(1, kmax + 1):
        case1 = lgv_determinant(tuple(range(k + 1, 0, -1)), 1)
        case2 = lgv_determinant(tuple(range(k, -1, -1)), 2)
        out.append(_record("case12", {"k": k}, case1 == case2))
    return out


SUITES = {
    "delannoy": suite_delannoy,
    "kernels": suite_kernels,
    "id1": suite_id1,
    "id2": suite_id2,
    "detprop": suite_detprop,
    "main": suite_main,
    "degree": suite_degree,
    "case12": suite_case12,
}


def run_suite(name: str, kmax: int | None = None) -> list[dict]:
    """Run one named suite (or 'all'); kmax overrides the default sweep.

    For most suites kmax is the top of the sweep.  ``id1`` and ``id2`` read
    it as a lower bound on the top of each of their sweeps, which runs to
    ``max(4s+6, kmax)`` for each s, so a small kmax never shortens them.

    A sweep that yields no records checks nothing, so it raises ValueError
    instead of passing vacuously.
    """
    if name == "all":
        suites = list(SUITES.values())
    elif name in SUITES:
        suites = [SUITES[name]]
    else:
        raise ValueError(f"unknown suite {name!r}")
    records = []
    for suite in suites:
        records.extend(suite() if kmax is None else suite(kmax))
    if not records:
        raise ValueError(f"suite {name!r} with kmax={kmax} produced no records")
    return records
