"""Acceptance suite: every criterion is an exact equality check, printed as
one PASS/FAIL line per criterion (run with ``pytest -s`` to see them)."""

from contextlib import contextmanager
from fractions import Fraction
from math import prod

from conftest import small_partitions

from aztec_triangles.delannoy import lgv_determinant, staircase_rows
from aztec_triangles.domains import build_domain, enumerate_tilings
from aztec_triangles.exact import Matrix
from aztec_triangles.formulas import (
    df_formula,
    product_case1,
    product_case2,
    product_main,
)
from aztec_triangles.paths import enumerate_path_families, lgv_matrix
from aztec_triangles.sequences import enumerate_sequences
from aztec_triangles.tableaux import enumerate_tableaux
from aztec_triangles.verify import (
    run_suite,
    suite_degree,
    suite_delannoy,
    suite_detprop,
    suite_id1,
    suite_id2,
    suite_kernels,
    suite_main,
)


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text}")


def staircase(k, n=None):
    n = k if n is None else n
    return tuple(range(k, 0, -1)) + (0,) * (n - k)


def test_criterion_1_triangle_tiling_counts():
    with criterion(1, "tiling counts of the size-n triangles are 1, 4, 60, 3328"):
        expected = {1: 1, 2: 4, 3: 60, 4: 3328}
        for n, value in expected.items():
            tilings = enumerate_tilings(build_domain(staircase(n), 1))
            assert len(tilings) == value
            assert df_formula(n) == value


def test_criterion_2_four_way_agreement():
    with criterion(2, "tilings = sequences = tableaux = path families = det"):
        for mu in small_partitions(3, 3):
            for case in (1, 2):
                counts = {
                    len(enumerate_sequences(mu, case)),
                    len(enumerate_tableaux(mu, case)),
                    len(enumerate_path_families(mu, case)),
                    len(enumerate_tilings(build_domain(mu, case))),
                    lgv_determinant(mu, case),
                }
                assert len(counts) == 1, (mu, case, counts)


def test_criterion_3_product_formulas():
    with criterion(3, "both staircase products match the model counts, k <= n <= 4"):
        for n in range(1, 5):
            for k in range(1, n + 1):
                mu = staircase(k, n)
                assert product_case1(k, 2 * n) == lgv_determinant(mu, 1)
                assert product_case2(k, n) == lgv_determinant(mu, 2)
                if n <= 3:
                    assert product_case1(k, 2 * n) == len(enumerate_sequences(mu, 1))
                    assert product_case2(k, n) == len(enumerate_sequences(mu, 2))
        assert product_case1(4, 8) == len(enumerate_sequences(staircase(4), 1))


def test_criterion_4_case1_case2_equality():
    with criterion(4, "Case 1 count of (k+1,...,1) = Case 2 count of (k,...,1,0)"):
        for k in range(1, 5):
            assert lgv_determinant(staircase(k + 1), 1) == lgv_determinant(
                staircase(k, k + 1), 2
            )


def staircase_det(k, n):
    """det D1(k; n), its int rows' determinant over their scales."""
    rows, scales = staircase_rows(k, n, 1)
    return Fraction(Matrix(rows).determinant(), prod(scales))


def test_criterion_5_determinant_relation():
    with criterion(5, "det D1(k;n+1/2) = det D2(k;n) on 0<=k<=6, -3<=n<=6"):
        records = suite_detprop(6)
        assert len(records) == 70
        assert all(r["pass"] for r in records)


def test_criterion_6_factored_determinant():
    with criterion(6, "det D1(k;n) equals the factored product; degree/leading ok"):
        main_records = suite_main(5)
        assert all(r["pass"] for r in main_records)
        # the same equality straight from the matrices, at mixed points
        for k in range(6):
            for n in [Fraction(-3, 2), 0, Fraction(7, 2), 5]:
                assert staircase_det(k, n) == product_main(k, n)
        degree_records = suite_degree(4)
        assert all(r["pass"] for r in degree_records)


def test_criterion_7_identity_suites():
    with criterion(7, "Delannoy, kernel, double-sum and gamma6 suites all exact"):
        for records in (
            suite_delannoy(20),
            suite_kernels(8),
            suite_id1(),
            suite_id2(),
        ):
            assert records and all(r["pass"] for r in records)


def test_criterion_8_exactness_everywhere():
    with criterion(8, "all checks are exact; no floats anywhere in the reports"):
        records = run_suite("all")
        assert all(r["pass"] for r in records)

        def no_floats(obj):
            if isinstance(obj, float):
                return False
            if isinstance(obj, dict):
                return all(no_floats(v) for v in obj.values())
            if isinstance(obj, (list, tuple)):
                return all(no_floats(v) for v in obj)
            return True

        assert no_floats(records)
        sample = [
            df_formula(5),
            product_case2(3, 5),
            staircase_det(3, Fraction(1, 2)),
            lgv_matrix((3, 1), 2).determinant(),
        ]
        assert all(isinstance(v, (int, Fraction)) for v in sample)
