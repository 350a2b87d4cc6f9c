"""The benchmark's own output checks, run in process: every call of the
``det``, ``enum`` and ``verify`` batches of seed 1 must exit 0 and pass the
check that ``perfbench/workloads.py`` gives it.  The benchmark file is read,
never imported as a package module, so no bytecode is written beside it."""

import types
from pathlib import Path

import pytest

from aztec_triangles.cli import main

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
HEAD_BYTES, TAIL_BYTES = 1 << 18, 1 << 16  # as the benchmark's runner keeps them

workloads = types.ModuleType("workloads")
exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), workloads.__dict__)


@pytest.mark.parametrize("name", ["det", "enum", "verify"])
def test_benchmark_calls_pass_their_checks(monkeypatch, capsys, name):
    monkeypatch.delenv("AZTEC_CAP", raising=False)
    for call in workloads.WORKLOADS[name](1):
        code = main(list(call.argv))
        data = capsys.readouterr().out.encode()
        out = workloads.Output(code, len(data), data.count(b"\n"),
                               data[:HEAD_BYTES], data[-TAIL_BYTES:])
        assert (code, call.check(out)) == (0, None), call.argv
