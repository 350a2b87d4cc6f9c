"""Fast checks of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import json
import time
from pathlib import Path

import pytest

import run
from workloads import (
    Call,
    chain_count,
    expect_crosscheck,
    expect_int,
    expect_records,
    expect_stream,
    expect_tiling_ascii,
)

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = [
    Call(("count", "--mu", "2,1", "--case", "1"), expect_int(4)),
    Call(("count", "--mu", "2,1", "--case", "2", "--method", "product"),
         expect_int(chain_count((2, 1), 2))),
    Call(("crosscheck", "--mu", "2,1", "--case", "2"),
         expect_crosscheck((2, 1), 2, chain_count((2, 1), 2))),
    Call(("enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling"),
         expect_stream((2, 1), 1, "tiling", 4, None), trace_memory=True),
    Call(("enumerate", "--mu", "2,1", "--case", "1", "--model", "tableau",
          "--limit", "2"), expect_stream((2, 1), 1, "tableau", 4, 2)),
    Call(("render", "--mu", "2,1", "--case", "1", "--tiling-index", "3",
          "--format", "ascii"), expect_tiling_ascii((2, 1), 1)),
    Call(("verify", "--suite", "degree", "--kmax", "2"), expect_records(2)),
]


def runner():
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    return run.Runner(ROOT, time.monotonic() + 60)


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_oracle_known_counts():
    assert chain_count((2, 1), 1) == 4
    assert chain_count((3, 2, 1), 1) == 60
    assert chain_count((1, 0), 2) == 4
    assert chain_count((4, 3, 2, 1), 1) == 3328
    assert chain_count((4, 3, 2, 1), 2) == 32032


def test_end_to_end_metrics_named_with_units():
    r = runner()
    metrics = run.measure(r, TINY, seconds=0)
    calls = run.MIN_PASSES * (run.SETUP_CALLS + len(TINY))
    assert (r.attempted, r.failed) == (calls, 0)
    assert {name: unit for name, (_, unit) in metrics.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_metrics_named_with_units():
    r = runner()
    metrics = run.trace(r, TINY, "tiny")
    assert r.failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == units("per_layer")
    values = {name: value for name, (value, _) in metrics.items()}
    assert values["delannoy.entries"] > 0 and values["exact.det_calls"] > 0
    # crosscheck (case 2), full stream and render (case 1)
    assert values["domains.enumerate_items"] == chain_count((2, 1), 2) + 4 + 4
    assert values["domains.enumerate_peak_kb"] > 0
    assert values["verify.records"] == 2 and values["verify.records_failed"] == 0


@pytest.mark.parametrize("call", [
    Call(("count", "--mu", "2,1", "--case", "1"), expect_int(5)),
    Call(("count", "--mu", "1,2", "--case", "1"), expect_int(4)),
    Call(("enumerate", "--mu", "2,1", "--case", "1", "--model", "paths"),
         expect_stream((2, 1), 1, "paths", 5, None)),
    Call(("verify", "--suite", "degree", "--kmax", "2"), expect_records(3)),
])
def test_wrong_output_counts_as_failed(call):
    r = runner()
    run.measure(r, [call], seconds=0)
    calls = run.MIN_PASSES * (run.SETUP_CALLS + 1)
    assert (r.attempted, r.failed) == (calls, run.MIN_PASSES)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "det", "--seed", "1", "--seconds", "1"])
    assert code != 0 and capsys.readouterr().out == ""
