"""Command-line front end.

Verbs: count, enumerate, crosscheck, verify, render.  Counts print as bare
decimal integers; enumerate emits a JSON header line followed by one JSON
object per element in canonical order; verify prints a JSON report array.

Brute-force counts (``count --method brute``, ``crosscheck``, the enumerate
header) are the searches' goal counts and build no object; ``enumerate
--limit`` and ``render --tiling-index`` build only the objects they print.
A stream (``_json_lines``) encodes the fields its objects share once, and
each distinct part (domino, chain entry, row, path) once.

Exit codes: 0 success / all checks pass, 1 a verification or crosscheck
failed, 2 invalid input, 3 enumeration cap exceeded (see AZTEC_CAP) or out
of memory.

Each verb reads the public names it runs through the package root, which
imports only their modules, so a call loads only those: ``count --method
det`` and ``verify`` never load the path, tableau, chain or tiling models,
and ``--help`` loads none of them.  The three verbs that print JSON import
``json`` in their handlers, so ``count``, ``render`` and ``--help`` never
load it.  A well-formed call (a verb, then ``--long-flag VALUE`` pairs)
reads its options without importing ``argparse``, ``gettext`` or
``locale``; ``--help``, ``-h``, abbreviations, ``--name=value`` and every
usage error still go through ``argparse``.
"""

import sys
from functools import cache
from itertools import islice
from types import SimpleNamespace

import aztec_triangles as az

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
        value = az.lgv_determinant(mu, args.case)
    elif args.method == "product":
        staircase = _staircase_parameters(mu)
        if staircase is None or staircase[0] < 1:
            raise ValueError(
                f"--method product needs mu of the form (k,...,1,0,...); got {args.mu!r}"
            )
        k, n = staircase
        value = (
            az.product_case1(k, 2 * n) if args.case == 1 else az.product_case2(k, n)
        )
    else:  # brute
        value = _items("tiling", mu, args.case).goals
    print(value)
    return 0


_MODELS = ("paths", "sequence", "tableau", "tiling")


def _items(model: str, mu: Partition, case: int):
    """One model's objects, built as they are read, loading only that
    model's module."""
    if model == "sequence":
        return az.enumerate_sequences(mu, case)
    if model == "tableau":
        return az.enumerate_tableaux(mu, case)
    if model == "paths":
        return az.enumerate_path_families(mu, case)
    return az.enumerate_tilings(az.build_domain(mu, case))


# lines per write of a stream: an unbuffered stdout (``python -u``,
# PYTHONUNBUFFERED) or a terminal would take one write per line
_STREAM_BLOCK = 256


def _json_lines(items, dumps):
    """The lines ``dumps(item.to_json())`` of one stream's items, which
    differ only in their last field, whose element i alone makes element i
    of the list ending their JSON.  The head before that list is encoded
    once, and so is each (i, element), from an item holding i + 1 copies."""
    text = None
    for item in items:
        if text is None:
            field = item._fields[-1]
            head = dumps(item._replace(**{field: ()}).to_json())[:-2]  # to the "["

            @cache
            def text(i_part):
                i, part = i_part
                shell = item._replace(**{field: (part,) * (i + 1)})
                return dumps([*shell.to_json().values()][-1][i])
        yield f"{head}{', '.join(map(text, enumerate(item[-1])))}]}}\n"


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
    # a whole stream needs no stop, and islice takes none above sys.maxsize,
    # which no stream reaches
    stop = None if emitted == total else min(emitted, sys.maxsize)
    lines = _json_lines(islice(items, stop), json.dumps)
    while block := "".join(islice(lines, _STREAM_BLOCK)):
        sys.stdout.write(block)
    return 0


def _cmd_crosscheck(args) -> int:
    import json

    mu = parse_partition(args.mu)
    case = args.case
    counts = {
        "sequences": _items("sequence", mu, case).goals,
        "tableaux": _items("tableau", mu, case).goals,
        "paths": _items("paths", mu, case).goals,
        "tilings": _items("tiling", mu, case).goals,
        "determinant": az.lgv_determinant(mu, case),
    }
    agree = len(set(counts.values())) == 1
    print(json.dumps({"mu": list(mu), "case": case, **counts, "agree": agree}))
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    import json

    records = az.run_suite(args.suite, args.kmax)
    print(json.dumps(records, indent=2))
    return 0 if all(r["pass"] for r in records) else 1


def _cmd_render(args) -> int:
    mu = parse_partition(args.mu)
    if args.tiling_index is None:
        text = az.render(az.build_domain(mu, args.case), args.format)
    else:
        tilings = _items("tiling", mu, args.case)
        if not 0 <= args.tiling_index < tilings.goals:
            raise ValueError(
                f"tiling index {args.tiling_index} out of range (0..{tilings.goals - 1})"
            )
        text = az.render(tilings[args.tiling_index], args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# Each verb's help, handler and options.  An option is the (flags, keywords)
# that build_parser hands to add_argument, and _read_argv reads the same
# pair: its last flag, type, choices, default and required.
_MU_CASE = (
    (("--mu",), dict(required=True, help="partition, e.g. '3,2,1' (trailing zeros count)")),
    (("--case",), dict(type=int, choices=(1, 2), required=True)),
)
_VERBS = {
    "count": ("print the exact tiling count", _cmd_count, (
        *_MU_CASE,
        (("--method",), dict(choices=("det", "product", "brute"), default="det")),
    )),
    "enumerate": ("stream one model's objects as JSON", _cmd_enumerate, (
        *_MU_CASE,
        (("--model",), dict(choices=_MODELS, required=True)),
        (("--limit",), dict(type=int, default=None, help="truncate canonical order")),
    )),
    "crosscheck": ("run all four counters and compare", _cmd_crosscheck, _MU_CASE),
    "verify": ("run an identity suite, print JSON report", _cmd_verify, (
        (("--suite",), dict(choices=SUITE_NAMES + ("all",), required=True)),
        (("--kmax",), dict(
            type=int, default=None,
            help="top of the sweep; id1 and id2 sweep to max(4s+6, kmax) for each s",
        )),
    )),
    "render": ("draw a domain or one of its tilings", _cmd_render, (
        *_MU_CASE,
        (("--tiling-index",), dict(type=int, default=None)),
        (("--format",), dict(choices=("ascii", "svg"), required=True)),
        (("-o", "--output"), dict(default=None)),
    )),
}


def build_parser():
    """The ``argparse.ArgumentParser`` of ``_VERBS``, which reads every argv
    that ``_read_argv`` does not, and prints help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="aztec-triangles",
        description="Count, enumerate, verify and draw domino tilings of "
        "generalized Aztec triangles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, func, options) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        for flags, spec in options:
            p.add_argument(*flags, **spec)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv):
    """``build_parser().parse_args(argv)`` without argparse, or None.

    It reads only a verb followed by ``--long-flag VALUE`` pairs: each of
    the verb's options at most once, each value converting by the option's
    type into one of its choices, every required option present, and no
    value starting with ``-`` unless argparse reads it as a negative number
    (``-`` then decimal digits).  Any other argv (help, ``-o``, an
    abbreviation, ``--name=value``, a repeat, a bad value, an unknown verb)
    gets None and goes to argparse, which reads it or prints its help or
    usage error.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _, func, options = _VERBS[argv[0]]
    given = dict(zip(argv[1::2], argv[2::2]))
    if 2 * len(given) + 1 != len(argv):
        return None  # a flag without a value, or a repeated flag
    args = {"verb": argv[0], "func": func}
    for flags, spec in options:
        dest = flags[-1][2:].replace("-", "_")
        text = given.pop(flags[-1], None)
        if text is None:
            if spec.get("required"):
                return None
            args[dest] = spec.get("default")
            continue
        if text.startswith("-") and not text[1:].isdecimal():
            return None
        try:
            value = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        args[dest] = value
    return None if given else SimpleNamespace(**args)


def main(argv=None) -> int:
    # integers of any size read and print; older Pythons have no such limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help
            return int(exc.code or 0)
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
    except MemoryError:
        pass
    # out of the handler, whose traceback held the frames of the call, so
    # whatever the call had built is free before the message is written
    print(f"error: out of memory running {args.verb}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
