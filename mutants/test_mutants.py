"""The mutation catalogue: each row is a one-edit fault that tier-1 must catch.

Each row is applied to a temporary copy of the whole tree, not only of
``src``: ``pyproject.toml``'s ``pythonpath`` puts the ``src`` beside it
first on the path, so tier-1 must run from the copy.  It runs there under
``-x``, the row's module first.  A row whose ``old`` text is not found
exactly once in its file fails here, so a refactor that moves a mutated line
must update the table.  A mutant that every test passes is a survivor: it is
reported at the end of the run, not asserted.  The ``no-op`` row changes
nothing, so it must survive; if it is killed, the unmutated tree fails
tier-1, no kill means anything, and the harness fails.

Usage, from the repository root:

    python -m pytest -q mutants
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/aztec_triangles/"


class Mutant(NamedTuple):
    id: str
    file: str
    old: str
    new: str
    module: str  # the test module expected to kill it


MUTANTS = [
    Mutant("no-op", PKG + "exact.py", "class Matrix:", "class Matrix:", "tests/test_exact.py"),
    # exact arithmetic
    Mutant("pochhammer-negative-shift", PKG + "exact.py",
           "prod(range(p + i * q, p, q))", "prod(range(p + (i + 1) * q, p + q, q))",
           "tests/test_exact.py"),
    Mutant("binomial-start-minus-1", PKG + "exact.py",
           "pochhammer(x - l + 1, l)", "pochhammer(x - l, l)", "tests/test_exact.py"),
    Mutant("pq-drops-denominator", PKG + "exact.py",
           "return x.numerator, x.denominator", "return x.numerator, 1",
           "tests/test_exact.py"),
    Mutant("pq-int-denominator-2", PKG + "exact.py", "return x, 1", "return x, 2",
           "tests/test_exact.py"),
    Mutant("ratio-no-remainder-check", PKG + "exact.py", "    if not rest:\n",
           "    if True:\n", "tests/test_exact.py"),
    Mutant("det-turns-rows-not-each-row", PKG + "exact.py",
           "[list(reversed(row)) for row in", "[list(row) for row in",
           "tests/test_exact.py"),
    # the path and tableau validators
    Mutant("disjoint-never-false", PKG + "paths.py",
           "                return False\n            seen.add(pt)",
           "                pass\n            seen.add(pt)", "tests/test_paths.py"),
    Mutant("family-no-endpoints", PKG + "paths.py",
           "if path.start != start_point(j) or path.end != end:",
           "if False:", "tests/test_paths.py"),
    Mutant("family-case2-final-east", PKG + "paths.py",
           'if family.case == 2 and path.steps.endswith("E"):',
           "if False:", "tests/test_paths.py"),
    Mutant("family-unknown-step", PKG + "paths.py",
           "        if not set(path.steps) <= _MOVES.keys():\n            return False\n",
           "", "tests/test_paths.py"),
    Mutant("tableau-no-row-width", PKG + "tableaux.py",
           "if any(len(row) != width for row, width in zip(t.rows, t.shape)):",
           "if False:", "tests/test_tableaux.py"),
    Mutant("tableau-barred-row-repeat", PKG + "tableaux.py",
           "(e == row[c - 1] and e.barred)", "(e == row[c - 1] and False)",
           "tests/test_tableaux.py"),
    Mutant("tableau-unbarred-column-repeat", PKG + "tableaux.py",
           "(e == above[c] and not e.barred)", "(e == above[c] and False)",
           "tests/test_tableaux.py"),
    Mutant("tableau-no-row-index-bound", PKG + "tableaux.py",
           "if e.value < r + 1 or e > top:", "if e > top:", "tests/test_tableaux.py"),
    # the bijections
    Mutant("diagonal-index-shift", PKG + "domains.py",
           "for d, length in enumerate(tiling.domain.lengths)",
           "for d, length in enumerate(tiling.domain.lengths, start=1)",
           "tests/test_domains.py"),
    Mutant("diagonal-next-cell", PKG + "domains.py",
           "(d - ((d, p) in seconds))", "(d - ((d, p + 1) in seconds))",
           "tests/test_unranking.py"),
    Mutant("tiling-v-h-swapped", PKG + "domains.py",
           "VERTICAL if b == a else HORIZONTAL", "HORIZONTAL if b == a else VERTICAL",
           "tests/test_unranking.py"),
    Mutant("tableau-next-step-entry", PKG + "tableaux.py",
           "_cells(seq.n, m, seq.chain[m - 1], seq.chain[m])",
           "_cells(seq.n, m + 1, seq.chain[m - 1], seq.chain[m])",
           "tests/test_unranking.py"),
    Mutant("sequence-drops-cells-at-3", PKG + "tableaux.py",
           "bisect_right(row, top) for row in t.rows",
           "bisect_right(row, top) - (m == 3) for row in t.rows",
           "tests/test_unranking.py"),
    Mutant("paths-barred-1-as-east", PKG + "paths.py",
           "            if e.barred:\n", "            if e.barred and e.value != 1:\n",
           "tests/test_unranking.py"),
    Mutant("tableau-d-above-1-unbarred", PKG + "paths.py",
           "row.append(Entry(y, True))", "row.append(Entry(y, y == 1))",
           "tests/test_unranking.py"),
    # the verify bounds and grids, and the empty-sweep check
    Mutant("coeff-r-bound", PKG + "verify.py",
           "range(1, min(s, l - s + 1 - t) + 1)", "range(1, min(s, l - s - t) + 1)",
           "tests/test_verify.py"),
    Mutant("double-sum-first-bound", PKG + "verify.py",
           "for i in range(k // 2 + 1))", "for i in range(k // 2))",
           "tests/test_verify.py"),
    Mutant("front-exponent", PKG + "verify.py",
           "2 ** (4 * r - 3 + 2 * t)", "2 ** (4 * r - 2 + 2 * t)", "tests/test_verify.py"),
    Mutant("i-from-1-rows-from-2", PKG + "verify.py",
           "for i in range(1, limit + 1) for j", "for i in range(2, limit + 1) for j",
           "tests/test_verify.py"),
    Mutant("half-shift-grid-to-13", PKG + "verify.py",
           "square(-1, 12)", "square(-1, 13)", "tests/test_verify.py"),
    Mutant("run-suite-empty-only-overall", PKG + "verify.py",
           "        if not found:\n"
           '            raise ValueError(f"suite {suite!r} with kmax={kmax} produced no records")\n'
           "        records.extend(found)\n",
           "        records.extend(found)\n"
           "    if not records:\n"
           '        raise ValueError(f"suite {name!r} with kmax={kmax} produced no records")\n',
           "tests/test_cli.py"),
    # the README's Library block
    Mutant("matrix-repr", PKG + "exact.py", 'return f"Matrix({', 'return f"Mat({',
           "tests/test_readme.py"),
    # the chain search
    Mutant("vertical-strip-lo-plus-2", PKG + "sequences.py",
           "top = lo + 1 if vertical", "top = lo + 2 if vertical", "tests/test_sequences.py"),
    # the option reader, the model table, the stream writer and the
    # out-of-memory exit
    Mutant("reader-any-flag-prefix", PKG + "cli.py",
           "text = given.pop(flags[-1], None)",
           "text = next((given.pop(f) for f in list(given) if flags[-1].startswith(f)), None)",
           "tests/test_cli.py"),
    Mutant("reader-any-dash-value", PKG + "cli.py",
           'if text.startswith("-") and not text[1:].isdecimal():', "if False:",
           "tests/test_cli.py"),
    Mutant("reader-no-default", PKG + "cli.py",
           'args[dest] = spec.get("default")', "pass", "tests/test_cli.py"),
    Mutant("stream-drops-partial-block", PKG + "cli.py",
           'while block := "".join(islice(lines, _STREAM_BLOCK)):\n'
           "        sys.stdout.write(block)",
           "for block in zip(*[lines] * _STREAM_BLOCK):\n"
           '        sys.stdout.write("".join(block))',
           "tests/test_cli.py"),
    Mutant("items-tableau-as-sequence", PKG + "cli.py",
           "return az.enumerate_tableaux(mu, case)", "return az.enumerate_sequences(mu, case)",
           "tests/test_cli.py"),
    Mutant("out-of-memory-exit-1", PKG + "cli.py",
           'of memory running {args.verb}", file=sys.stderr)\n    return 3',
           'of memory running {args.verb}", file=sys.stderr)\n    return 1',
           "tests/test_cli.py"),
]


def mutate(path: Path, old: str, new: str) -> None:
    """Replace the one occurrence of ``old`` in ``path`` with ``new``."""
    text = path.read_text()
    found = text.count(old)
    if found != 1:
        raise LookupError(f"{path.name}: old text found {found} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def first_failure(tree: Path, first: str) -> str | None:
    """Run tier-1 in ``tree`` under ``-x``, ``first`` first: the id of the
    test that failed, or None if every test passed."""
    others = sorted(str(p.relative_to(tree)) for p in (tree / "tests").glob("test_*.py"))
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", first, *(m for m in others if m != first)],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    if child.returncode == 0:
        return None
    if child.returncode != 1:
        raise RuntimeError(f"pytest exit {child.returncode}:\n{child.stdout[-3000:]}{child.stderr}")
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", child.stdout, re.M)
    return failed.group(1) if failed else "(no test id in the report)"


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant(mutant, tmp_path, record_property):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "mutants"))
    mutate(tree / mutant.file, mutant.old, mutant.new)
    killer = first_failure(tree, mutant.module)
    if mutant.old == mutant.new:
        assert killer is None, f"the unmutated tree fails tier-1 at {killer}"
    record_property("mutant", mutant.id)
    record_property("killer", killer)


def test_stale_old_text_fails(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("x = 1\nx = 1\n")
    with pytest.raises(LookupError, match="found 0 times"):
        mutate(path, "y = 1", "y = 2")
    with pytest.raises(LookupError, match="found 2 times"):
        mutate(path, "x = 1", "x = 2")
    assert path.read_text() == "x = 1\nx = 1\n"
