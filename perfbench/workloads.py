"""The benchmark's workloads: fixed batches of CLI calls and their checks.

Every call carries its own check. Expected values come from this file alone:
Delannoy numbers from ``math.comb`` and an integer Bareiss determinant, never
from the package under test. They are computed before any timing starts.

Shapes that depend on the seed are drawn from fixed size classes, so every
seed does about the same amount of work.
"""

import json
import random
from math import comb
from typing import Callable, NamedTuple, Optional

MODELS = ("sequence", "tableau", "paths", "tiling")


class Output(NamedTuple):
    """What a child printed, as far as the parent keeps it.

    ``head`` holds the first bytes of stdout and ``tail`` the last ones. The
    parent never holds a whole multi-megabyte stream: a child's max-RSS
    starts at the parent's peak RSS, so a large parent reads as a large
    child. (For the same reason this module avoids ``dataclasses``.)
    """

    code: int
    nbytes: int
    nlines: int
    head: bytes
    tail: bytes

    @property
    def complete(self) -> bool:
        return len(self.head) == self.nbytes

    def first_line(self) -> bytes:
        return self.head.split(b"\n", 1)[0]

    def last_line(self) -> bytes:
        return self.tail.rstrip(b"\n").rsplit(b"\n", 1)[-1]


Check = Callable[[Output], Optional[str]]


class Call(NamedTuple):
    argv: tuple
    check: Check
    # Whether the traced run also measures this call's enumerator memory.
    trace_memory: bool = False


# --------------------------------------------------------------------------
# Oracle
# --------------------------------------------------------------------------


def delannoy(i: int, j: int) -> int:
    """D(i, j) = sum_l C(i,l) C(j,l) 2^l for j >= 0, and 0 for i < 0."""
    if i < 0:
        return 0
    return sum(comb(i, l) * comb(j, l) << l for l in range(min(i, j) + 1))


def bareiss(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for r in range(n - 1):
        pivot = next((i for i in range(r, n) if a[i][r]), None)
        if pivot is None:
            return 0
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                a[i][j] = (a[i][j] * a[r][r] - a[i][r] * a[r][j]) // prev
        prev = a[r][r]
    return sign * a[n - 1][n - 1]


def chain_count(mu: tuple, case: int) -> int:
    """Chain (= tiling) count of mu by the LGV determinant of D (Case 1)
    or H(i, j) = D(i, j) + D(i-1, j) (Case 2) entries."""
    n = len(mu)

    def entry(i, j):
        return delannoy(i, j) if case == 1 else delannoy(i, j) + delannoy(i - 1, j)

    return bareiss(
        [[entry(mu[a] - a + b, n - b - 1) for b in range(n)] for a in range(n)]
    )


def domain_cells(mu: tuple, case: int) -> tuple[int, int]:
    """(cells, ghosts) of the generalized Aztec triangle of mu: diagonal d
    has mu_1 + ceil(d/2) squares, and the last diagonal keeps its
    len(mu) particles (Case 2) or the remaining holes (Case 1)."""
    n = len(mu)
    ell = 2 * n + (case == 2)
    lengths = [mu[0] + (d + 1) // 2 for d in range(ell)]
    kept = n if case == 2 else lengths[-1] - n
    return sum(lengths[:-1]) + kept, lengths[-1] - kept


# --------------------------------------------------------------------------
# Checks of a call that exited with code 0: each returns None when the
# output is right, else the reason it is wrong.
# --------------------------------------------------------------------------


def expect_anything(out: Output) -> Optional[str]:
    return None


def _json_line(line: bytes):
    try:
        return json.loads(line)
    except ValueError:
        return None


def expect_usage(out: Output) -> Optional[str]:
    if not out.head.startswith(b"usage: aztec-triangles"):
        return "no usage text"
    return None


def expect_int(value: int) -> Check:
    def check(out):
        printed = out.head.strip()
        if printed != str(value).encode():
            return f"printed {printed[:40]!r}, expected {value}"
        return None

    return check


def expect_crosscheck(mu: tuple, case: int, count: int) -> Check:
    want = {"mu": list(mu), "case": case, "sequences": count, "tableaux": count,
            "paths": count, "tilings": count, "determinant": count, "agree": True}

    def check(out):
        got = _json_line(out.first_line())
        return None if got == want else f"printed {out.first_line()[:200]!r}"

    return check


def expect_stream(mu: tuple, case: int, model: str, count: int,
                  limit: Optional[int]) -> Check:
    emitted = count if limit is None else min(limit, count)
    want = {"mu": list(mu), "case": case, "model": model, "count": count,
            "emitted": emitted}

    def check(out):
        header = _json_line(out.first_line())
        if header != want:
            return f"header {out.first_line()[:200]!r}"
        if out.nlines != 1 + emitted:
            return f"{out.nlines - 1} items printed, header says {emitted}"
        last = _json_line(out.last_line()) if emitted else header
        if not isinstance(last, dict) or last.get("case") != case:
            return f"last item {out.last_line()[:200]!r}"
        return None

    return check


def expect_tiling_ascii(mu: tuple, case: int) -> Check:
    cells, ghosts = domain_cells(mu, case)

    def check(out):
        text = out.head.decode(errors="replace")
        if not out.complete or set(text) - set("OoXx~ \n"):
            return "not an ASCII tiling"
        starts = text.count("O") + text.count("X")
        seconds = text.count("o") + text.count("x")
        if (starts, seconds, text.count("~")) != (cells // 2, cells // 2, ghosts):
            return f"{starts}+{seconds} domino squares, {text.count('~')} ghosts"
        return None

    return check


def expect_records(length: int) -> Check:
    def check(out):
        records = _json_line(out.head) if out.complete else None
        if not isinstance(records, list) or not records:
            return "no JSON record array"
        if len(records) != length:
            return f"{len(records)} records, expected {length}"
        failed = sum(
            1 for r in records if not isinstance(r, dict) or r.get("pass") is not True)
        return f"{failed} records failed" if failed else None

    return check


# --------------------------------------------------------------------------
# Batches
# --------------------------------------------------------------------------


def _mu_arg(mu: tuple) -> str:
    return ",".join(map(str, mu))


def _entry_cost(mu: tuple) -> int:
    # Building D(i, j) takes about i^2 rational products, and the LGV matrix
    # of mu has an entry with i = mu_a - a + b for every (a, b).
    n = len(mu)
    return sum(max(0, mu[a] - a + b) ** 2 for a in range(n) for b in range(n))


def random_shape(rng: random.Random, n: int) -> tuple:
    """A partition with n declared parts in [0, n], whose entry cost lies
    within 2% of that of the ramp (n-a)n/(n+1), a = 0..n-1."""
    target = _entry_cost(tuple((n - a) * n // (n + 1) for a in range(n)))
    while True:
        mu = tuple(sorted((rng.randint(0, n) for _ in range(n)), reverse=True))
        if abs(_entry_cost(mu) - target) <= 0.02 * target:
            return mu


def det_batch(seed: int) -> list:
    rng = random.Random(seed)
    calls = []
    for k in (12, 18, 24, 30):
        mu = tuple(range(k, 0, -1))
        for case in (1, 2):
            value = chain_count(mu, case)
            for method in ("det", "product"):
                argv = ("count", "--mu", _mu_arg(mu), "--case", str(case),
                        "--method", method)
                calls.append(Call(argv, expect_int(value)))
    for n in (16, 22, 28):
        mu = random_shape(rng, n)
        for case in (1, 2):
            argv = ("count", "--mu", _mu_arg(mu), "--case", str(case),
                    "--method", "det")
            calls.append(Call(argv, expect_int(chain_count(mu, case))))
    return calls


# Crosscheck cost is set by the brute-force searches rather than by the
# count: over the shapes with parts <= 4 and four declared parts it ranges
# from 0.02 s to 9 s. These partitions of 8 with largest part 3 took
# 0.20-0.32 s in case 1 and 0.99-1.25 s in case 2.
ENUM_SHAPES = ((3, 3, 2, 0), (3, 3, 1, 1), (3, 2, 2, 1))


def enum_batch(seed: int) -> list:
    rng = random.Random(seed)
    big = (4, 3, 2, 1)
    calls = []
    for mu, case in [(big, 1), (big, 2)] + [
        (mu, case) for mu in rng.sample(ENUM_SHAPES, 2) for case in (1, 2)
    ]:
        argv = ("crosscheck", "--mu", _mu_arg(mu), "--case", str(case))
        calls.append(Call(argv, expect_crosscheck(mu, case, chain_count(mu, case))))
    # Full streams build and print everything; truncated calls print a few
    # items of the 32,032 they build today.
    count1, count2 = chain_count(big, 1), chain_count(big, 2)
    for model in MODELS:
        argv = ("enumerate", "--mu", _mu_arg(big), "--case", "1", "--model", model)
        calls.append(Call(argv, expect_stream(big, 1, model, count1, None), True))
    for model, limit in (("tiling", 1), ("sequence", 10)):
        argv = ("enumerate", "--mu", _mu_arg(big), "--case", "2", "--model", model,
                "--limit", str(limit))
        calls.append(Call(argv, expect_stream(big, 2, model, count2, limit)))
    argv = ("render", "--mu", _mu_arg(big), "--case", "2", "--tiling-index",
            str(rng.randrange(count2)), "--format", "ascii")
    calls.append(Call(argv, expect_tiling_ascii(big, 2)))
    return calls


# (suite, kmax, records): every suite at its default sweep, then larger
# sweeps. Record counts follow from each suite's parameter grid.
VERIFY_SWEEPS = (
    ("delannoy", None, 11),
    ("kernels", None, 120),
    ("id1", None, 72),
    ("id2", None, 18),
    ("detprop", None, 70),
    ("main", None, 102),
    ("degree", None, 4),
    ("case12", None, 4),
    ("delannoy", 30, 11),
    ("kernels", 12, 364),
    ("kernels", 14, 560),
    ("detprop", 12, 130),
    ("degree", 8, 8),
    ("main", 10, 187),
    ("case12", 10, 10),
)


def verify_batch(seed: int) -> list:
    # The sweeps are fixed; the seed has no inputs to choose here.
    calls = []
    for suite, kmax, records in VERIFY_SWEEPS:
        argv = ("verify", "--suite", suite)
        if kmax is not None:
            argv += ("--kmax", str(kmax))
        calls.append(Call(argv, expect_records(records)))
    return calls


WORKLOADS = {"det": det_batch, "enum": enum_batch, "verify": verify_batch}
