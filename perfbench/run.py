"""Benchmark of the aztec-triangles command line.

    python3 perfbench/run.py --workload {det,enum,verify} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout. Each CLI call is a fresh
``python -m aztec_triangles.cli`` child with ``PYTHONPATH=src``, and exactly
one child runs at a time: a closed loop with one client. The workload's
batch of calls repeats until ``--seconds`` have passed, and at least twice.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics:

- ``setup_s``: median wall time of a no-work call (``--help``);
- ``wall_s`` / ``cpu_s``: the batch's wall time and its children's user+sys
  CPU time, each the sum over calls of the call's median over the passes;
- ``peak_rss_mb``: the largest max-RSS of any single call.

With ``--trace 1`` every call of one pass runs in a fresh traced child
(``trace_child.py``) instead, and the object holds the per-layer metrics:
self time of each layer, counts taken at the same boundaries, and, from a
second tracemalloc pass over the full ``enumerate`` streams, each
enumerator's peak traced memory.

Every output is checked; a wrong exit code or output counts in ``failed``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, Call, Output, expect_anything, expect_usage

HERE = Path(__file__).resolve().parent
SETUP_CALLS = 5
MIN_PASSES = 2
HEAD_BYTES = 1 << 18
TAIL_BYTES = 1 << 16
RUN_LIMIT_S = 170.0
ENUMERATOR_MODULES = ("sequences", "paths", "domains", "tableaux")

# Per-layer metric -> unit, in the order they are printed.
LAYER_UNITS = {
    "cli.main_ms": "ms",
    "cli.emit_ms": "ms",
    "delannoy.entry_ms": "ms",
    "delannoy.entries": "count",
    "paths.lgv_matrix_ms": "ms",
    "exact.det_ms": "ms",
    "exact.det_calls": "count",
    "exact.det_max_dim": "rows",
    "exact.det_max_bits": "bits",
    "formulas.product_ms": "ms",
    **{
        f"{module}.enumerate_{what}": unit
        for module in ENUMERATOR_MODULES
        for what, unit in (("ms", "ms"), ("items", "count"), ("peak_kb", "KiB"))
    },
    "tableaux.bijection_ms": "ms",
    "domains.build_ms": "ms",
    "domains.render_ms": "ms",
    **{
        f"verify.{suite}_ms": "ms"
        for suite in ("delannoy", "kernels", "id1", "id2", "detprop", "main",
                      "degree", "case12")
    },
    "verify.records": "count",
    "verify.records_failed": "count",
}


class Runner:
    """Spawns CLI children one at a time and checks what they print."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("AZTEC_CAP", None)  # every call runs at the default cap
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.attempted = 0
        self.failed = 0

    def spawn(self, argv, stdout=subprocess.PIPE):
        """Run argv to completion; returns (Output, wall_s, rusage)."""
        remaining = self.deadline - time.monotonic()
        with tempfile.TemporaryFile(dir=self.root / ".perfbench") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=stdout,
                                    stderr=err)
            killer = threading.Timer(max(remaining, 0.0), proc.kill)
            killer.start()
            try:
                out = _drain(proc.stdout)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                if proc.stdout:
                    proc.stdout.close()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out = Output(proc.returncode, *out)
            if proc.returncode != 0:
                err.seek(0)
                sys.stderr.write(err.read(2000).decode(errors="replace"))
        return out, wall, usage

    def check(self, call: Call, out: Output) -> bool:
        self.attempted += 1
        problem = f"exit code {out.code}" if out.code else call.check(out)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(call.argv)}: {problem}", file=sys.stderr)
        return problem is None

    def cli(self, call: Call):
        out, wall, usage = self.spawn(
            [sys.executable, "-m", "aztec_triangles.cli", *call.argv])
        self.check(call, out)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def _drain(stream):
    """(nbytes, nlines, head, tail) of a stream, read in bounded memory."""
    if stream is None:
        return 0, 0, b"", b""
    head, tail = bytearray(), b""
    nbytes = nlines = 0
    while chunk := stream.read(1 << 16):
        nbytes += len(chunk)
        nlines += chunk.count(b"\n")
        if len(head) < HEAD_BYTES:
            head += chunk[: HEAD_BYTES - len(head)]
        tail = (tail + chunk)[-TAIL_BYTES:]
    return nbytes, nlines, bytes(head), tail


def measure(runner: Runner, batch: list, seconds: float) -> dict:
    """End-to-end metrics of the batch, repeated for ``seconds`` and at
    least MIN_PASSES times; set-up calls open each pass."""
    usage = Call(("--help",), expect_usage)
    setup = []
    walls = [[] for _ in batch]
    cpus = [[] for _ in batch]
    peak_kb = 0
    start = time.monotonic()
    passes = 0
    while passes < MIN_PASSES or time.monotonic() - start < seconds:
        setup += [runner.cli(usage)[0] for _ in range(SETUP_CALLS)]
        for i, call in enumerate(batch):
            wall, cpu, rss_kb = runner.cli(call)
            walls[i].append(wall)
            cpus[i].append(cpu)
            peak_kb = max(peak_kb, rss_kb)
        passes += 1
        if time.monotonic() > runner.deadline:
            break
    totals = [round(sum(w[p] for w in walls), 3) for p in range(passes)]
    print(f"{passes} passes of {len(batch)} calls, wall s {totals}", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(w) for w in walls), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }


def trace(runner: Runner, batch: list, workload: str) -> dict:
    """Per-layer metrics from one traced pass over the batch."""
    spans_dir = runner.root / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    child = [sys.executable, str(HERE / "trace_child.py")]
    peaks = {}
    files = []
    for i, call in enumerate(batch):
        path = spans_dir / f"{workload}-{i:03d}.jsonl"
        out, _, _ = runner.spawn(
            child + ["time", str(path), workload, "--", *call.argv])
        if runner.check(call, out):
            files.append(path)
        if call.trace_memory:
            mem = spans_dir / f"{workload}-{i:03d}.mem.json"
            out, _, _ = runner.spawn(
                child + ["mem", str(mem), workload, "--", *call.argv],
                stdout=subprocess.DEVNULL)
            if runner.check(Call(call.argv, expect_anything), out):
                for layer, peak in json.loads(mem.read_text()).items():
                    peaks[layer] = max(peaks.get(layer, 0), peak)
    metrics = layer_metrics(files)
    for module in ENUMERATOR_MODULES:
        peak = peaks.get(f"{module}.enumerate", 0)
        metrics[f"{module}.enumerate_peak_kb"] = peak / 1024
    return {name: (metrics.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}


def layer_metrics(files) -> dict:
    """Self time per layer and the counts recorded on its spans.

    A span is [name, start, end, parent, workload, attrs]; its self time is
    its duration minus that of its direct children.
    """
    metrics = {}

    def add(name, value):
        metrics[name] = metrics.get(name, 0) + value

    for path in files:
        with open(path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        inner = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                inner[parent] += end - start
        for (name, start, end, _, _, attrs), covered in zip(spans, inner):
            add(f"{name}_ms", (end - start - covered) * 1000)
            attrs = attrs or {}
            if name == "delannoy.entry":
                add("delannoy.entries", 1)
            elif name == "exact.det":
                add("exact.det_calls", 1)
                for key in ("max_dim", "max_bits"):
                    metrics[f"exact.det_{key}"] = max(
                        metrics.get(f"exact.det_{key}", 0), attrs[key])
            elif name.endswith(".enumerate"):
                add(f"{name}_items", attrs["items"])
            elif name.startswith("verify."):
                add("verify.records", attrs["records"])
                add("verify.records_failed", attrs["failed"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aztec_triangles" / "cli.py").is_file():
        print("error: run from the root of an aztec-triangles checkout "
              "(src/aztec_triangles/cli.py not found)", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    runner = Runner(root, time.monotonic() + RUN_LIMIT_S)
    batch = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics = trace(runner, batch, args.workload)
    else:
        metrics = measure(runner, batch, args.seconds)
    report = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
