"""Exact zero-tests scaffolding the determinant evaluation.

Steps 1-4 check that explicit column/row combinations of the staircase
matrix vanish at the roots the factored formula predicts; they are the
linear relations behind each factor's exponent.  The two double-sum
identities are the closed forms those relations reduce to.  Everything here
is an exact equality of rationals; there are no tolerances.

Step 3 note: the first sum carries (-1)^(i-a), not (-1)^i; expanding the
alternating binomial sum produces a global (-1)^a that has to cancel
against the unsigned tail sum, and the worked (k,s,a) = (4,2,1) instance
confirms that relative sign.
"""

from fractions import Fraction
from math import factorial

from .delannoy import d_submatrix, lgv_matrix
from .exact import Exact, binomial, normalize, pochhammer
from .formulas import product_main

_HALF = Fraction(1, 2)


def _poch_signed(x: Exact, n: int) -> Fraction:
    """Shifted factorial extended to negative index by (x)_(-m) = 1/(x-m)_m."""
    if n >= 0:
        return Fraction(pochhammer(x, n))
    m = -n
    denom = Fraction(1)
    for i in range(1, m + 1):
        denom *= x - i
    return 1 / denom


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


def _kernel_record(step: str, params: dict, residuals: list) -> dict:
    """A kernel step passes when every combination it formed is 0."""
    passed = all(r == 0 for r in residuals)
    return _record(step, params, passed, [str(r) for r in residuals])


def _column_step(step: str, k: int, s: int, a: int, n: Exact, top: int) -> dict:
    """Each row of D1(k; n) over columns a..a+top, weighted by C(top, j-a)."""
    m = d_submatrix(k, n, 1)
    residuals = [
        sum(binomial(top, j - a) * m[i, j] for j in range(a, a + top + 1))
        for i in range(k)
    ]
    return _kernel_record(step, {"k": k, "s": s, "a": a}, residuals)


def check_step1(k: int, s: int, a: int) -> dict:
    """Binomial column combination vanishing at n = s + 1 (k = a mod 2)."""
    if not (0 <= a <= s and k >= 2 * s - a + 2 and (k - a) % 2 == 0):
        raise ValueError(f"illegal step 1 parameters {(k, s, a)}")
    return _column_step("step1", k, s, a, s + 1, 2 * s - 2 * a + 1)


def check_step2(k: int, s: int, a: int) -> dict:
    """Binomial column combination vanishing at n = s + 1/2 (k != a mod 2)."""
    if not (0 <= a <= s and k >= 2 * s - a + 1 and (k - a) % 2 == 1):
        raise ValueError(f"illegal step 2 parameters {(k, s, a)}")
    return _column_step("step2", k, s, a, s + _HALF, 2 * s - 2 * a)


def check_step3(k: int, s: int, a: int) -> dict:
    """Alternating row combination minus a power-of-two tail, at n = -k+s+1."""
    if not (0 <= 2 * a <= s and k >= 2 * s - 2 * a + 2):
        raise ValueError(f"illegal step 3 parameters {(k, s, a)}")
    m = d_submatrix(k, -k + s + 1, 1)
    weight = 2 ** (2 * s + 2 - 4 * a)
    residuals = []
    for j in range(k):
        head = sum(
            (-1) ** (i - a) * binomial(s + 1 - 2 * a, i - a) * m[i, j]
            for i in range(a, s + 2 - a)
        )
        tail = sum(
            weight * binomial(i - a - 1, s - 2 * a) * m[i, j]
            for i in range(s + 1 - a, k)
        )
        residuals.append(head - tail)
    return _kernel_record("step3", {"k": k, "s": s, "a": a}, residuals)


def _c1_head(s: int, l: int) -> Fraction:
    """The term of c1(s, l) outside the sum over r; id1's outer factor."""
    return (
        Fraction((4 * l - 4 * s + 1) * (-1) ** (s - 1))
        * pochhammer(1 - l, s - 1)
        * _poch_signed(_HALF, s)
        * _poch_signed(_HALF, l - s)
        / ((2 * l - 4 * s + 1) * factorial(l) * factorial(s - 1))
    )


def _c1(s: int, l: int) -> Fraction:
    tail = Fraction(0)
    for r in range(1, s + 1):
        tail += (
            Fraction(2) ** (4 * r - 3)
            * _poch_signed(2 * r - _HALF, s - r)
            * _poch_signed(2 * r - _HALF, l - s - r)
            * _inv_factorial(l - s - r + 1)
            / factorial(s - r)
        )
    return -_c1_head(s, l) - (4 * l - 4 * s + 1) * tail


def _c2_head(s: int, l: int) -> Fraction:
    """The term of c2(s, l) outside the sum over r; id2's outer factor."""
    return (
        Fraction((4 * l - 4 * s - 1) * (-1) ** (s - 1))
        * pochhammer(1 - l, s - 1)
        * _poch_signed(_HALF, s + 1)
        * _poch_signed(_HALF, l - s - 1)
        / ((2 * l - 4 * s - 1) * factorial(l) * factorial(s - 1))
    )


def _c2(s: int, l: int) -> Fraction:
    tail = Fraction(0)
    for r in range(1, s + 1):
        tail += (
            Fraction(2) ** (4 * r - 1)
            * _poch_signed(2 * r + _HALF, s - r)
            * _poch_signed(2 * r + _HALF, l - s - r - 1)
            * _inv_factorial(l - s - r)
            / factorial(s - r)
        )
    return _c2_head(s, l) - (4 * l - 4 * s - 1) * tail


def check_step4(k: int, s: int, a: int, variant: str) -> dict:
    """Row combinations with the c1/c2 coefficients, vanishing at the
    half-integer roots n = -k+2s-1/2 (odd) and n = -k+2s+1/2 (even)."""
    if variant == "odd":
        if not (0 <= a < s and k >= 4 * s - 2 * a - 1):
            raise ValueError(f"illegal step 4 (odd) parameters {(k, s, a)}")
        n = -k + 2 * s - _HALF
        coeff = _c1
    elif variant == "even":
        if not (0 <= a < s and k >= 4 * s - 2 * a + 1):
            raise ValueError(f"illegal step 4 (even) parameters {(k, s, a)}")
        n = -k + 2 * s + _HALF
        coeff = _c2
    else:
        raise ValueError(f"variant must be 'odd' or 'even', got {variant!r}")
    m = d_submatrix(k, n, 1)
    weights = [coeff(s - a, i - a) for i in range(a, k)]
    residuals = [
        sum(w * m[i, j] for w, i in zip(weights, range(a, k))) for j in range(k)
    ]
    return _kernel_record(
        "step4", {"k": k, "s": s, "a": a, "variant": variant}, residuals
    )


def check_id1(k: int, s: int) -> Exact:
    """First double-sum identity; must evaluate to exactly 0."""
    if not (s >= 1 and k >= 4 * s - 1):
        raise ValueError(f"illegal id1 parameters {(k, s)}")
    total = Fraction(0)
    for i in range(k):
        factor = _c1_head(s, i)
        for l in range(k - 2 * i + 1):
            total += (
                factor
                * binomial(k - 2 * i, l)
                * binomial(-k + 2 * s - Fraction(3, 2), l)
                * 2**l
            )
    for r in range(1, s + 1):
        front = (
            Fraction((-1) ** k)
            * Fraction(2) ** (4 * r - 3)
            * _poch_signed(2 * r - _HALF, s - r)
            / factorial(s - r)
        )
        for l in range(k - 2 * r - 2 * s + 3):
            total += (
                front
                * Fraction(2) ** (k - 2 * r - 2 * s + 3 - l)
                * factorial(k - 2 * r - 2 * s + 1)
                * factorial(k + 2 * r - 2 * s - 1)
                / (
                    factorial(l) ** 2
                    * factorial(k - 2 * r - 2 * s + 2 - l)
                    * factorial(k + 2 * r - 2 * s - l)
                )
                * (
                    -(l**2)
                    + 2 * k
                    + k**2
                    + 4 * r
                    - 4 * r**2
                    - 4 * s
                    - 4 * k * s
                    + 4 * s**2
                )
            )
    return normalize(total)


def check_id2(k: int, s: int) -> Exact:
    """Second double-sum identity; must evaluate to exactly 0."""
    if not (s >= 1 and k >= 4 * s + 1):
        raise ValueError(f"illegal id2 parameters {(k, s)}")
    total = Fraction(0)
    for i in range(k):
        factor = _c2_head(s, i)
        for l in range(k - 2 * i + 1):
            total += (
                factor
                * binomial(k - 2 * i, l)
                * binomial(-k + 2 * s - _HALF, l)
                * 2**l
            )
    for r in range(1, s + 1):
        front = (
            Fraction((-1) ** (k - 1))
            * Fraction(2) ** (4 * r - 1)
            * _poch_signed(2 * r + _HALF, s - r)
            / factorial(s - r)
        )
        for l in range(k - 2 * r - 2 * s + 1):
            total += (
                front
                * Fraction(2) ** (k - 2 * r - 2 * s + 1 - l)
                * factorial(k - 2 * r - 2 * s - 1)
                * factorial(k + 2 * r - 2 * s - 1)
                / (
                    factorial(l) ** 2
                    * factorial(k - 2 * r - 2 * s - l)
                    * factorial(k + 2 * r - 2 * s - l)
                )
                * (-(l**2) + k**2 - 4 * r**2 - 4 * k * s + 4 * s**2)
            )
    return normalize(total)


def check_detprop(k: int, n: int) -> bool:
    """det D1(k; n+1/2) = det D2(k; n)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return (
        d_submatrix(k, n + _HALF, 1).determinant()
        == d_submatrix(k, n, 2).determinant()
    )


def check_main(k: int, n: Exact) -> bool:
    """det D1(k; n) equals the factored product, exactly."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return d_submatrix(k, n, 1).determinant() == product_main(k, n)


def _interpolate(xs, ys):
    """Monomial coefficients (ascending) of the Newton interpolant."""
    m = len(xs)
    table = [Fraction(y) for y in ys]
    newton = [table[0]]
    for level in range(1, m):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            for i in range(m - level)
        ]
        newton.append(table[0])
    coeffs = [Fraction(0)] * m
    basis = [Fraction(1)]
    for step, c in enumerate(newton):
        for power, b in enumerate(basis):
            coeffs[power] += c * b
        shifted = [Fraction(0)] + basis
        basis = [
            shifted[p] - xs[step] * (basis[p] if p < len(basis) else 0)
            for p in range(len(shifted))
        ]
    return coeffs


def leading_coefficient(k: int) -> Exact:
    """2^(k^2) / prod_(i=1..k) (i)_i, the top coefficient of det D1(k; n)."""
    value = Fraction(2) ** (k * k)
    for i in range(1, k + 1):
        value /= pochhammer(i, i)
    return normalize(value)


def check_degree_and_leading(k: int) -> bool:
    """Interpolate det D1(k; n) exactly and read off degree and top
    coefficient."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    top = k * (k + 1) // 2
    xs = list(range(top + 2))
    ys = [d_submatrix(k, x, 1).determinant() for x in xs]
    coeffs = _interpolate(xs, ys)
    return coeffs[top + 1] == 0 and coeffs[top] == leading_coefficient(k)


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
    """All legal (step, k, s, a[, variant]) with k <= kmax."""
    for k in range(0, kmax + 1):
        for s in range(0, k + 1):
            for a in range(0, s + 1):
                if k >= 2 * s - a + 2 and (k - a) % 2 == 0:
                    yield ("step1", k, s, a, None)
                if k >= 2 * s - a + 1 and (k - a) % 2 == 1:
                    yield ("step2", k, s, a, None)
                if 2 * a <= s and k >= 2 * s - 2 * a + 2:
                    yield ("step3", k, s, a, None)
                if a < s and k >= 4 * s - 2 * a - 1:
                    yield ("step4", k, s, a, "odd")
                if a < s and k >= 4 * s - 2 * a + 1:
                    yield ("step4", k, s, a, "even")


_STEP_CHECKS = {
    "step1": check_step1,
    "step2": check_step2,
    "step3": check_step3,
    "step4": check_step4,
}


def suite_kernels(kmax: int = 8) -> list[dict]:
    return [
        _STEP_CHECKS[step](k, s, a) if variant is None else check_step4(k, s, a, variant)
        for step, k, s, a, variant in step_parameter_grid(kmax)
    ]


def suite_delannoy(limit: int = 20) -> list[dict]:
    from .delannoy import (
        count_D_paths_bruteforce,
        count_H_paths_bruteforce,
        delannoy_D,
        delannoy_H,
        half_shift_expansion,
    )
    from .errors import IdentityError

    out = []
    grid = [(i, j) for i in range(limit + 1) for j in range(limit + 1)]

    def all_hold(pred):
        return all(pred(i, j) for i, j in grid)

    out.append(
        _record(
            "delannoy",
            {"identity": "D = D(i-1,j) + H(i,j-1)", "grid": limit},
            all_hold(lambda i, j: delannoy_D(i, j)
                     == delannoy_D(i - 1, j) + delannoy_H(i, j - 1)),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "D = sum_l H(l,j-1)", "grid": limit},
            all_hold(lambda i, j: delannoy_D(i, j)
                     == sum(delannoy_H(l, j - 1) for l in range(i + 1))),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "D = binomial sum (path count)", "grid": limit},
            all(
                delannoy_D(i, j) == count_D_paths_bruteforce(i, j)
                for i in range(min(limit, 12) + 1)
                for j in range(min(limit, 12) + 1)
            ),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "H recurrence", "grid": limit},
            all_hold(
                lambda i, j: delannoy_H(i, j)
                == delannoy_H(i - 1, j) + delannoy_H(i, j - 1) + delannoy_H(i - 1, j - 1)
            ),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "H = 2 sum_l D(l,i-1), i >= 1", "grid": limit},
            all(
                delannoy_H(i, j) == 2 * sum(delannoy_D(l, i - 1) for l in range(j + 1))
                for i in range(1, limit + 1)
                for j in range(limit + 1)
            ),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "H(0,j) = 1", "grid": limit},
            all(delannoy_H(0, j) == 1 for j in range(-1, limit + 1)),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "H binomial sum, i >= 1", "grid": limit},
            all(
                delannoy_H(i, j)
                == sum(
                    binomial(i - 1, l - 1) * binomial(j + 1, l) * 2**l
                    for l in range(1, i + 1)
                )
                for i in range(1, limit + 1)
                for j in range(limit + 1)
            ),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "H path count", "grid": 12},
            all(
                delannoy_H(i, j) == count_H_paths_bruteforce(i, j)
                for i in range(13)
                for j in range(13)
            ),
        )
    )
    out.append(
        _record(
            "delannoy",
            {"identity": "recurrence for extended D", "grid": "[-3,12]^2"},
            all(
                delannoy_D(i, j)
                == delannoy_D(i - 1, j) + delannoy_D(i - 1, j - 1) + delannoy_D(i, j - 1)
                for i in range(-3, 13)
                for j in range(-3, 13)
            ),
        )
    )
    wish_ok = True
    for i in range(limit + 1):
        expected = 0 if i % 2 == 1 else abs(binomial(-_HALF, i // 2))
        wish_ok = wish_ok and delannoy_D(i, -_HALF) == expected
    out.append(_record("delannoy", {"identity": "D(i,-1/2) base case", "grid": limit}, wish_ok))
    half_ok = True
    try:
        for i in range(-1, 13):
            for j in range(-1, 13):
                half_shift_expansion(i, j)
    except IdentityError:
        half_ok = False
    out.append(
        _record("delannoy", {"identity": "half-shift expansion", "grid": "[-1,12]^2"}, half_ok)
    )
    return out


def suite_id1(kmax: int | None = None) -> list[dict]:
    out = []
    for s in range(1, 4):
        hi = max(4 * s + 6, kmax) if kmax is not None else 4 * s + 6
        for k in range(4 * s - 1, hi + 1):
            value = check_id1(k, s)
            out.append(_record("id1", {"k": k, "s": s}, value == 0, str(value)))
    for s in range(1, 5):
        for k in range(4 * s - 1, 21):
            ok = check_gamma6(k, s) and gamma6_irreducible_factor(k, s) % 2 == 1
            out.append(_record("id1", {"check": "gamma6", "k": k, "s": s}, ok))
    return out


def suite_id2(kmax: int | None = None) -> list[dict]:
    out = []
    for s in range(1, 4):
        hi = max(4 * s + 6, kmax) if kmax is not None else 4 * s + 6
        for k in range(4 * s + 1, hi + 1):
            value = check_id2(k, s)
            out.append(_record("id2", {"k": k, "s": s}, value == 0, str(value)))
    return out


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
        case1 = lgv_matrix(tuple(range(k + 1, 0, -1)), 1).determinant()
        case2 = lgv_matrix(tuple(range(k, -1, -1)), 2).determinant()
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
