"""Run one aztec-triangles CLI call in-process, traced from outside.

    PYTHONPATH=src python3 perfbench/trace_child.py MODE OUT WORKLOAD -- ARGS...

The package's public functions are wrapped where its modules look them up,
so the package itself is unchanged. Each wrapper opens a span for its layer
unless the innermost open span already belongs to that layer.

MODE ``time`` keeps the spans in memory and writes them to OUT at exit, one
JSON array per line: [name, start, end, parent, workload, attrs].

MODE ``mem`` runs under tracemalloc and writes to OUT one JSON object: the
peak traced bytes of each outermost enumerator call. It times nothing,
because tracemalloc would distort the timings.
"""

import json
import sys
import time
import tracemalloc
from functools import wraps
from types import SimpleNamespace

from aztec_triangles import (
    cli,
    delannoy,
    domains,
    exact,
    formulas,
    paths,
    sequences,
    tableaux,
    verify,
)

MODULES = (cli, delannoy, domains, exact, formulas, paths, sequences, tableaux, verify)

ENUMERATORS = {
    "sequences.enumerate": (sequences, "enumerate_sequences"),
    "paths.enumerate": (paths, "enumerate_path_families"),
    "domains.enumerate": (domains, "enumerate_tilings"),
    "tableaux.enumerate": (tableaux, "enumerate_tableaux"),
}

FUNCTIONS = {
    "delannoy.entry": ((delannoy, "delannoy_D"), (delannoy, "delannoy_H")),
    "paths.lgv_matrix": ((paths, "lgv_matrix"),),
    "formulas.product": ((formulas, "product_case1"), (formulas, "product_case2"),
                         (formulas, "product_main")),
    "tableaux.bijection": ((tableaux, "sequence_to_tableau"),),
    "domains.build": ((domains, "build_domain"),),
    "domains.render": ((domains, "render"),),
    **{layer: (where,) for layer, where in ENUMERATORS.items()},
}

ITEM_TYPES = (sequences.PartitionSequence, tableaux.SuperSymplecticTableau,
              paths.PathFamily, domains.Tiling)


def replace_everywhere(original, replacement) -> None:
    """Rebind every package-module name that refers to ``original``."""
    for module in MODULES:
        for name in [n for n, v in vars(module).items() if v is original]:
            setattr(module, name, replacement)


class Spans:
    """The spans of one CLI call, kept in memory until it ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.rows = []
        self.open = []

    def wrap(self, layer, fn, attrs=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            if self.open and self.rows[self.open[-1]][0] == layer:
                return fn(*args, **kwargs)
            index = len(self.rows)
            parent = self.open[-1] if self.open else -1
            row = [layer, 0.0, 0.0, parent, self.workload, None]
            self.rows.append(row)
            self.open.append(index)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self.open.pop()
            if attrs is not None:
                row[5] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        for layer, places in FUNCTIONS.items():
            for module, name in places:
                original = getattr(module, name)
                attrs = _items if layer in ENUMERATORS else None
                replace_everywhere(original, self.wrap(layer, original, attrs))
        exact.Matrix.determinant = self.wrap(
            "exact.det", exact.Matrix.determinant, _matrix_size)
        for suite, fn in list(verify.SUITES.items()):
            verify.SUITES[suite] = self.wrap(f"verify.{suite}", fn, _records)
        # Emission: each item's to_json, then json.dumps and print in cli.
        for cls in ITEM_TYPES:
            cls.to_json = self.wrap("cli.emit", cls.to_json)
        cli.json = SimpleNamespace(dumps=self.wrap("cli.emit", json.dumps))
        cli.print = self.wrap("cli.emit", print)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


def _items(args, result):
    return {"items": len(result)}


def _matrix_size(args, result):
    m = args[0]
    bits = 0
    for row in m.entries:
        for x in row:  # int or Fraction; both have numerator and denominator
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {"max_dim": m.nrows, "max_bits": bits}


def _records(args, result):
    return {"records": len(result),
            "failed": sum(1 for r in result if not r["pass"])}


class Peaks:
    """Peak traced memory of each outermost enumerator call."""

    def __init__(self):
        self.peaks = {}
        self.depth = 0

    def wrap(self, layer, fn):
        @wraps(fn)
        def measured(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[layer] = max(self.peaks.get(layer, 0), peak)
                self.depth -= 1

        return measured

    def install(self) -> None:
        for layer, (module, name) in ENUMERATORS.items():
            original = getattr(module, name)
            replace_everywhere(original, self.wrap(layer, original))


def main(argv) -> int:
    mode, out_path, workload, dash, *cli_args = argv
    if dash != "--" or mode not in ("time", "mem"):
        raise SystemExit("usage: trace_child.py {time,mem} OUT WORKLOAD -- ARGS...")
    if mode == "time":
        spans = Spans(workload)
        spans.install()
        code = spans.wrap("cli.main", cli.main)(cli_args)
        sys.stdout.flush()
        spans.write(out_path)
    else:
        peaks = Peaks()
        peaks.install()
        tracemalloc.start()
        code = cli.main(cli_args)
        tracemalloc.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(peaks.peaks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
