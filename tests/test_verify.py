import json
from fractions import Fraction

import pytest

from aztec_triangles import verify
from aztec_triangles.delannoy import staircase_rows
from aztec_triangles.exact import binomial
from aztec_triangles.verify import (
    check_degree_and_leading,
    check_detprop,
    check_gamma6,
    check_id1,
    check_id2,
    check_main,
    gamma6_irreducible_factor,
    leading_coefficient,
    run_suite,
    step_parameter_grid,
    suite_id1,
    suite_kernels,
)

HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def kernels():
    return suite_kernels(8)


def passing(step, k, s, a, variant=None):
    """The record of a kernel step that passes at (k, s, a)."""
    params = {"k": k, "s": s, "a": a, **({"variant": variant} if variant else {})}
    return {"suite": step, "params": params, "pass": True}


def test_step1_examples(kernels):
    assert passing("step1", 2, 0, 0) in kernels
    assert passing("step1", 4, 1, 0) in kernels
    assert passing("step1", 3, 1, 1) in kernels


def test_step2_examples(kernels):
    assert passing("step2", 1, 0, 0) in kernels
    assert passing("step2", 3, 1, 0) in kernels
    assert passing("step2", 2, 1, 1) in kernels


def test_step3_examples(kernels):
    assert staircase_rows(2, -1, 1) == ([[5, -25], [1, -5]], [1, 1])
    assert passing("step3", 2, 0, 0) in kernels
    assert passing("step3", 4, 1, 0) in kernels
    assert passing("step3", 4, 2, 1) in kernels


def test_step4_examples(kernels):
    assert passing("step4", 3, 1, 0, "odd") in kernels
    assert passing("step4", 5, 1, 0, "even") in kernels
    assert passing("step4", 7, 2, 1, "odd") in kernels


def test_full_legal_grid_small():
    records = suite_kernels(6)
    assert records and all(r["pass"] for r in records)


def test_grid_contains_expected_points():
    grid = set(step_parameter_grid(4))
    assert ("step1", 2, 0, 0, None) in grid
    assert ("step3", 4, 2, 1, None) in grid
    assert ("step4", 3, 1, 0, "odd") in grid
    assert ("step4", 4, 1, 0, "odd") in grid
    assert ("step4", 3, 1, 0, "even") not in grid  # needs k >= 5


def test_id_identities():
    assert check_id1(3, 1) == 0
    assert check_id1(8, 2) == 0
    assert check_id2(5, 1) == 0
    assert check_id2(9, 2) == 0
    with pytest.raises(ValueError):
        check_id1(2, 1)
    with pytest.raises(ValueError):
        check_id2(4, 1)


def test_detprop():
    assert check_detprop(0, 4)
    assert check_detprop(1, -2)
    assert check_detprop(2, 3)
    for k in range(5):
        for n in range(-3, 7):
            assert check_detprop(k, n), (k, n)
    with pytest.raises(ValueError, match="^need k >= 0, got -1$"):
        check_detprop(-1, 0)


def test_main_instances():
    assert check_main(1, Fraction(7, 2))
    assert check_main(2, 2)
    assert check_main(0, Fraction(22, 7))
    for k in range(4):
        for n in [-2, 0, 3, HALF, Fraction(11, 2), Fraction(-3, 2)]:
            assert check_main(k, n), (k, n)
    with pytest.raises(ValueError, match="^need k >= 0, got -1$"):
        check_main(-1, 0)


def test_degree_and_leading():
    assert leading_coefficient(1) == 2
    assert leading_coefficient(2) == Fraction(8, 3)
    assert check_degree_and_leading(1)
    assert check_degree_and_leading(2)
    assert check_degree_and_leading(3)
    with pytest.raises(ValueError):
        check_degree_and_leading(0)


@pytest.mark.parametrize(
    "poly, expected",
    [
        (lambda n: Fraction(8, 3) * n**3 - n + 7, True),  # degree 3, top 8/3
        # degree top+1 = 4, and Delta^3 f(0) / 3! = 8/3 all the same
        (lambda n: n * (n - 1) * (n - 2) * (n - 3) + Fraction(8, 3) * n**3, False),
        (lambda n: 3 * n**3 + n, False),  # degree 3, wrong top coefficient
    ],
    ids=["right", "degree-too-high", "wrong-top-coefficient"],
)
def test_degree_and_leading_detects_wrong_polynomial(monkeypatch, poly, expected):
    # k = 2: det D1 is a cubic with top coefficient 8/3; a 1x1 stand-in
    # for D1(2; n), one int row over one scale, makes the determinant any
    # polynomial in n
    def stand_in(k, n, case):
        value = Fraction(poly(n))
        return [[value.numerator]], [value.denominator]

    monkeypatch.setattr(verify, "staircase_rows", stand_in)
    assert check_degree_and_leading(2) is expected


def test_gamma6():
    assert check_gamma6(3, 1)
    assert check_gamma6(10, 2)
    for s in range(1, 5):
        for k in range(4 * s - 1, 21):
            assert gamma6_irreducible_factor(k, s) % 2 == 1
            assert check_gamma6(k, s)
    with pytest.raises(ValueError):
        check_gamma6(2, 1)


def test_run_suite_json_round_trip():
    records = run_suite("degree", 3)
    assert all(r["pass"] for r in records)
    assert json.loads(json.dumps(records)) == records
    with pytest.raises(ValueError):
        run_suite("nonsense")


def _step_weights(step, k, s, a, variant):
    """(weight, index) pairs of a kernel step: over the columns j of each
    row (steps 1, 2) or over the rows i of each column (steps 3, 4)."""
    if step in ("step1", "step2"):
        top = 2 * s - 2 * a + (step == "step1")
        return [(binomial(top, j - a), j) for j in range(a, a + top + 1)]
    if step == "step3":
        head = [
            ((-1) ** (i - a) * binomial(s + 1 - 2 * a, i - a), i)
            for i in range(a, s + 2 - a)
        ]
        tail = 2 ** (2 * s + 2 - 4 * a)
        return head + [
            (-tail * binomial(i - a - 1, s - 2 * a), i) for i in range(s + 1 - a, k)
        ]
    t = int(variant == "even")
    return [(verify._coeff(s - a, i - a, t), i) for i in range(a, k)]


@pytest.mark.parametrize(
    "step, k, s, a, variant",
    [
        ("step1", 4, 1, 0, None),
        ("step2", 3, 1, 0, None),
        ("step3", 4, 1, 0, None),
        ("step4", 7, 2, 1, "odd"),
        ("step4", 5, 1, 0, "even"),
    ],
)
def test_failing_residuals_on_int_rows(step, k, s, a, variant):
    # one entry of D1 off by 1/3 (its row tripled, the entry raised by the
    # row's scale, the scale tripled); the record's residuals must equal
    # the step's combination of the Fraction entries, summed here
    i0, j0 = (0, a) if step in ("step1", "step2") else (a + 1, 0)

    def off_by_a_third(k, n):
        rows, scales = staircase_rows(k, n, 1)
        rows[i0] = [3 * x for x in rows[i0]]
        rows[i0][j0] += scales[i0]
        scales[i0] *= 3
        return rows, scales

    n = {
        "step1": s + 1,
        "step2": s + HALF,
        "step3": -k + s + 1,
        "step4": -k + 2 * s - HALF + (variant == "even"),
    }[step]
    rows, scales = off_by_a_third(k, n)
    m = [[Fraction(x, c) for x in row] for row, c in zip(rows, scales)]
    weights = _step_weights(step, k, s, a, variant)
    if step in ("step1", "step2"):  # each row over the weighted columns
        reference = [sum(w * row[j] for w, j in weights) for row in m]
    else:  # each column over the weighted rows
        reference = [sum(w * m[i][j] for w, i in weights) for j in range(k)]
    record = verify._kernel_step(step, variant, k, s, a, off_by_a_third, verify._coeff)
    assert record["pass"] is False
    assert record["residual"] == [str(r) for r in reference]
    assert any(r.denominator > 1 for r in reference)


def test_failing_report_carries_residual(monkeypatch):
    # columns 0 and 1 of row 0, [4/3, -1] as [4, -3] over scale 3, sum to
    # 1/3; a kernel step keeps one string per row, an identity one string
    # for its value
    monkeypatch.setattr(
        verify, "staircase_rows", lambda k, n, case: ([[4, -3], [1, -1]], [3, 1])
    )
    record = next(r for r in suite_kernels(2) if r["suite"] == "step1")
    assert record["params"] == {"k": 2, "s": 0, "a": 0}
    assert record["pass"] is False
    assert record["residual"] == ["1/3", "0"]
    monkeypatch.setattr(verify, "check_id1", lambda k, s: Fraction(-2, 5))
    assert suite_id1()[0] == {
        "suite": "id1", "params": {"k": 3, "s": 1}, "pass": False, "residual": "-2/5"
    }


def test_half_shift_row_fails_on_wrong_expansion(monkeypatch):
    # each row checks its whole grid and no more.  The half-shift row
    # compares the expansion with D(i, j+1/2) on [-1,12]^2: a wrong expansion
    # must fail that row alone, and one wrong only at max(i, j) = 13 must
    # fail nothing.  The two i >= 1 rows start at i = 1: an H wrong only
    # there must fail both.
    def failed(name, wrong_at):
        right = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda i, j: right(i, j) + wrong_at(i, j))
        records = verify.suite_delannoy(6)
        assert len(records) == 11
        return [r["params"]["identity"] for r in records if not r["pass"]]

    assert failed("half_shift_expansion", lambda i, j: 1) == ["half-shift expansion"]
    monkeypatch.undo()
    assert failed("half_shift_expansion", lambda i, j: max(i, j) == 13) == []
    monkeypatch.undo()
    assert {"H = 2 sum_l D(l,i-1), i >= 1", "H binomial sum, i >= 1"} <= set(
        failed("delannoy_H", lambda i, j: i == 1)
    )


@pytest.mark.parametrize("kmax, count", [(-1, 4), (0, 9)])
def test_delannoy_row_with_no_points_gives_no_record(kmax, count):
    # at kmax -1 the seven rows over [0, kmax] are empty, at kmax 0 the two
    # i >= 1 rows: they check nothing, so they must not read as passes
    records = run_suite("delannoy", kmax)
    assert len(records) == count and all(r["pass"] for r in records)
