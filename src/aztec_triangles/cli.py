"""Command-line front end.

Verbs: count, enumerate, crosscheck, verify, render.  Counts print as bare
decimal integers; enumerate emits a JSON header line followed by one JSON
object per element in canonical order; verify prints a JSON report array.

Brute-force counts (``count --method brute``, ``crosscheck``, the enumerate
header) are the searches' goal counts and build no object; ``enumerate
--limit`` and ``render --tiling-index`` build only the objects they print.
A stream (``sequences.json_lines``) encodes the fields its objects share
once, and each distinct part (domino, chain entry, row, path) once.

Exit codes: 0 success / all checks pass, 1 a verification or crosscheck
failed, 2 invalid input, 3 enumeration cap exceeded (see AZTEC_CAP).

Each verb imports what it runs inside its handler, so a call loads only
those modules: ``count --method det`` and ``verify`` never load the path,
tableau, chain or tiling models, and ``--help`` loads none of them.  The
three verbs that print JSON import ``json`` in their handlers, so
``count``, ``render`` and ``--help`` never load it.
"""

import argparse
import sys
from itertools import islice

from .errors import CapExceeded, IdentityError
from .partitions import Partition, check_partition, normalize

# The names of verify.SUITES, kept here so that building the parser does not
# import verify; a test keeps the two equal.
SUITE_NAMES = ("case12", "degree", "delannoy", "detprop", "id1", "id2", "kernels", "main")


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def _staircase_parameters(mu: Partition):
    """(k, n) with mu = (k,...,1,0^(n-k)), or None if mu is not of that form."""
    n = len(mu)
    k = len(normalize(mu))
    if tuple(mu) != tuple(range(k, 0, -1)) + (0,) * (n - k):
        return None
    return k, n


def _cmd_count(args) -> int:
    mu = parse_partition(args.mu)
    if args.method == "det":
        from .delannoy import lgv_determinant

        value = lgv_determinant(mu, args.case)
    elif args.method == "product":
        from .formulas import product_case1, product_case2

        staircase = _staircase_parameters(mu)
        if staircase is None or staircase[0] < 1:
            raise ValueError(
                f"--method product needs mu of the form (k,...,1,0,...); got {args.mu!r}"
            )
        k, n = staircase
        value = (
            product_case1(k, 2 * n) if args.case == 1 else product_case2(k, n)
        )
    else:  # brute
        value = _items("tiling", mu, args.case).goals
    print(value)
    return 0


_MODELS = ("paths", "sequence", "tableau", "tiling")


def _items(model: str, mu: Partition, case: int):
    """One model's objects, built as they are read, importing only that
    model's module."""
    if model == "sequence":
        from .sequences import enumerate_sequences

        return enumerate_sequences(mu, case)
    if model == "tableau":
        from .tableaux import enumerate_tableaux

        return enumerate_tableaux(mu, case)
    if model == "paths":
        from .paths import enumerate_path_families

        return enumerate_path_families(mu, case)
    from .domains import build_domain, enumerate_tilings

    return enumerate_tilings(build_domain(mu, case))


def _cmd_enumerate(args) -> int:
    import json

    if args.limit is not None and args.limit < 0:
        raise ValueError(f"--limit must be >= 0, got {args.limit}")
    mu = parse_partition(args.mu)
    items = _items(args.model, mu, args.case)
    total = items.goals
    emitted = total if args.limit is None else min(args.limit, total)
    print(json.dumps({"mu": list(mu), "case": args.case, "model": args.model,
                      "count": total, "emitted": emitted}))
    from .sequences import json_lines

    # a whole stream needs no stop, and islice takes none above sys.maxsize,
    # which no stream reaches
    stop = None if emitted == total else min(emitted, sys.maxsize)
    sys.stdout.writelines(json_lines(islice(items, stop)))
    return 0


def _cmd_crosscheck(args) -> int:
    import json

    from .delannoy import lgv_determinant

    mu = parse_partition(args.mu)
    case = args.case
    counts = {
        "sequences": _items("sequence", mu, case).goals,
        "tableaux": _items("tableau", mu, case).goals,
        "paths": _items("paths", mu, case).goals,
        "tilings": _items("tiling", mu, case).goals,
        "determinant": lgv_determinant(mu, case),
    }
    agree = len(set(counts.values())) == 1
    print(json.dumps({"mu": list(mu), "case": case, **counts, "agree": agree}))
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    import json

    from .verify import run_suite

    records = run_suite(args.suite, args.kmax)
    print(json.dumps(records, indent=2))
    return 0 if all(r["pass"] for r in records) else 1


def _cmd_render(args) -> int:
    from .domains import build_domain, render

    mu = parse_partition(args.mu)
    if args.tiling_index is None:
        text = render(build_domain(mu, args.case), args.format)
    else:
        tilings = _items("tiling", mu, args.case)
        if not 0 <= args.tiling_index < tilings.goals:
            raise ValueError(
                f"tiling index {args.tiling_index} out of range (0..{tilings.goals - 1})"
            )
        text = render(tilings[args.tiling_index], args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aztec-triangles",
        description="Count, enumerate, verify and draw domino tilings of "
        "generalized Aztec triangles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_mu_case(p):
        p.add_argument("--mu", required=True, help="partition, e.g. '3,2,1' (trailing zeros count)")
        p.add_argument("--case", type=int, choices=(1, 2), required=True)

    p = sub.add_parser("count", help="print the exact tiling count")
    add_mu_case(p)
    p.add_argument("--method", choices=("det", "product", "brute"), default="det")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="stream one model's objects as JSON")
    add_mu_case(p)
    p.add_argument("--model", choices=_MODELS, required=True)
    p.add_argument("--limit", type=int, default=None, help="truncate canonical order")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("crosscheck", help="run all four counters and compare")
    add_mu_case(p)
    p.set_defaults(func=_cmd_crosscheck)

    p = sub.add_parser("verify", help="run an identity suite, print JSON report")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument(
        "--kmax", type=int, default=None,
        help="top of the sweep; id1 and id2 sweep to max(4s+6, kmax) for each s",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw a domain or one of its tilings")
    add_mu_case(p)
    p.add_argument("--tiling-index", type=int, default=None)
    p.add_argument("--format", choices=("ascii", "svg"), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # counts of any size print; older Pythons have no int-to-str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IdentityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
