import ast
import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import aztec_triangles
from aztec_triangles import cli, verify
from aztec_triangles.cli import main, parse_partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_partition():
    assert parse_partition("3,2,1") == (3, 2, 1)
    assert parse_partition("1,0") == (1, 0)
    assert parse_partition("") == ()
    with pytest.raises(ValueError):
        parse_partition("1,2")
    with pytest.raises(ValueError):
        parse_partition("a,b")


def test_count_methods(capsys):
    code, out, _ = run_cli(capsys, "count", "--mu", "2,1", "--case", "1", "--method", "det")
    assert code == 0 and out == "4\n"
    code, out, _ = run_cli(
        capsys, "count", "--mu", "3,2,1", "--case", "1", "--method", "product"
    )
    assert code == 0 and out == "60\n"
    code, out, _ = run_cli(
        capsys, "count", "--mu", "2,1", "--case", "1", "--method", "brute"
    )
    assert code == 0 and out == "4\n"
    code, out, _ = run_cli(
        capsys, "count", "--mu", "1,0", "--case", "2", "--method", "product"
    )
    assert code == 0 and out == "4\n"


def test_count_methods_agree(capsys):
    for mu in ("1", "2,1", "2,1,0", "3,2,1"):
        results = set()
        for method in ("det", "product", "brute"):
            code, out, _ = run_cli(
                capsys, "count", "--mu", mu, "--case", "1", "--method", method
            )
            assert code == 0
            results.add(out)
        assert len(results) == 1, mu


def test_count_product_rejects_general_mu(capsys):
    code, _, err = run_cli(
        capsys, "count", "--mu", "3,1", "--case", "1", "--method", "product"
    )
    assert code == 2
    assert "product" in err


def test_enumerate_stream(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--mu", "2,1", "--case", "1", "--model", "sequence"
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = json.loads(lines[0])
    assert header == {
        "mu": [2, 1],
        "case": 1,
        "model": "sequence",
        "count": 4,
        "emitted": 4,
    }
    chains = [json.loads(line)["chain"] for line in lines[1:]]
    assert len(chains) == 4
    assert chains == sorted(chains)


def test_enumerate_limit_truncates_canonical_order(capsys):
    _, full, _ = run_cli(
        capsys, "enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling"
    )
    code, out, _ = run_cli(
        capsys,
        "enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling", "--limit", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["emitted"] == 2
    assert lines[1:] == full.strip().splitlines()[1:3]


# sha256 of the full `enumerate --mu 4,3,2,1 --case 1` stdout of each model
STREAM_DIGESTS = {
    "sequence": "a00705acf9b6f8fed1b555ccb218e7cd019a6db8a125e065687038226813b087",
    "tableau": "d6166741f42fdf3dda9dc5b591cf15b9b43eb09b6e75cef4dce6cbea6cf8cd22",
    "paths": "6513217e59dde3044a4d4fe66ac779154494947cacdf3a9f636b04be2e67ded2",
    "tiling": "2402005a2e889087c2c5937c33bacb1e54683b7585f4f281ac445fdaa379ad9e",
}


@pytest.mark.parametrize("model", sorted(STREAM_DIGESTS))
def test_enumerate_stream_digest(capsys, model):
    code, out, _ = run_cli(
        capsys, "enumerate", "--mu", "4,3,2,1", "--case", "1", "--model", model
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STREAM_DIGESTS[model]


def test_enumerate_models(capsys):
    for model in ("sequence", "tableau", "paths", "tiling"):
        code, out, _ = run_cli(
            capsys, "enumerate", "--mu", "1,0", "--case", "2", "--model", model
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["count"] == 4
        assert len(lines) == 5


def test_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--mu", "2,1", "--case", "1")
    assert code == 0
    record = json.loads(out)
    assert record["agree"] is True
    assert record["determinant"] == 4


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "detprop", "--kmax", "4")
    assert code == 0
    records = json.loads(out)
    assert records and all(r["pass"] for r in records)
    code, out, _ = run_cli(capsys, "verify", "--suite", "degree", "--kmax", "2")
    assert code == 0


def test_render_ascii(capsys):
    code, out, _ = run_cli(
        capsys, "render", "--mu", "1", "--case", "1", "--format", "ascii"
    )
    assert code == 0 and out == ".~\n:\n"
    code, out, _ = run_cli(
        capsys,
        "render", "--mu", "2,1", "--case", "1", "--tiling-index", "0",
        "--format", "ascii",
    )
    assert code == 0 and out == " Oo\nOoO~\nXxo\nO~\no\n"


def test_render_svg_to_file(tmp_path, capsys):
    target = tmp_path / "domain.svg"
    code, out, _ = run_cli(
        capsys,
        "render", "--mu", "3,2,1,0", "--case", "1", "--format", "svg",
        "-o", str(target),
    )
    assert code == 0 and out == ""
    root = ET.parse(target).getroot()
    assert root.tag.endswith("svg")


def test_render_bad_index(capsys):
    code, _, err = run_cli(
        capsys,
        "render", "--mu", "1", "--case", "1", "--tiling-index", "5",
        "--format", "ascii",
    )
    assert code == 2 and "out of range" in err


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run_cli(capsys, "count", "--mu", "1,2", "--case", "1")
    assert code == 2 and "partition" in err
    code, _, _ = run_cli(capsys, "count", "--mu", "1", "--case", "7")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_cap_exceeded_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("AZTEC_CAP", "5")
    code, _, err = run_cli(
        capsys, "count", "--mu", "3,2,1", "--case", "1", "--method", "brute"
    )
    assert code == 3 and "cap" in err


@pytest.mark.parametrize(
    "model, search",
    [("sequence", "chain"), ("tableau", "chain"), ("paths", "path"), ("tiling", "tiling")],
)
def test_cap_exceeded_names_search(capsys, monkeypatch, model, search):
    monkeypatch.setenv("AZTEC_CAP", "5")
    code, out, err = run_cli(
        capsys, "enumerate", "--mu", "3,2,1", "--case", "1", "--model", model
    )
    assert code == 3 and out == "" and "Traceback" not in err
    assert err == f"error: {search} search exceeded cap of 5 nodes\n"


def test_output_deterministic(capsys):
    args = ("enumerate", "--mu", "2,1", "--case", "2", "--model", "paths")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_enumerate_negative_limit_exit_2(capsys):
    code, out, err = run_cli(
        capsys,
        "enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling", "--limit", "-1",
    )
    assert code == 2 and out == "" and "--limit" in err


def test_verify_empty_sweep_exit_2(capsys):
    for suite, kmax in (("main", "-1"), ("degree", "0")):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--kmax", kmax)
        assert code == 2 and out == "" and "no records" in err, suite


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--mu", "1200", "--case", "1", "--method", "brute"),
        ("enumerate", "--mu", "1200", "--case", "1", "--model", "tiling"),
        ("enumerate", "--mu", "1200", "--case", "1", "--model", "paths"),
    ],
)
def test_too_deep_search_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: search too deep") and "Traceback" not in err
    assert err.count("\n") == 1


# sha256 of each help text at 80 columns (Python 3.11 argparse); the verify
# one lists the suite names.
HELP_DIGESTS = {
    (): "ac524706fa6fd1e772dcdd4e4794987571ea70b80a13669fd49a64b454a231d2",
    ("count",): "ea8532f33aa0e33373405f2f3c7f855cdc1780ec22b9124efdece26dba7c166c",
    ("enumerate",): "7dde9548872fcbd569c2afa5b9e7ac6b0b78af94a79f2f21b05e89fcb1c4055f",
    ("crosscheck",): "7db10175a95b8f1e9522798179fdd5b9692037fc222570565673cc9d5bcc6048",
    ("verify",): "f6d96d5694f4e8073a5b74668d8ec409bef79bf6b16451209c162dfbe3c430da",
    ("render",): "b3d3e940ea7894c3b5920b7a3b8ad22ef980452cb9a61c46757090c46aec4800",
}


@pytest.mark.parametrize("verb", sorted(HELP_DIGESTS))
def test_help_text_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *verb, "--help")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[verb]


def test_suite_names_match_verify():
    assert tuple(sorted(verify.SUITES)) == cli.SUITE_NAMES


SRC = Path(aztec_triangles.__file__).resolve().parents[1]


def loaded_modules(code, *argv):
    """The package's submodules in sys.modules after a fresh interpreter
    runs ``code``, which must import ``sys``."""
    code += "\nprint(sorted(m for m in sys.modules if m.startswith('aztec_triangles.')))"
    child = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(ast.literal_eval(child.stdout.splitlines()[-1]))


CLI_MAIN = """
import contextlib, io, sys
from aztec_triangles import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
"""
MODELS = ("paths", "tableaux", "sequences", "domains")


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("--help",), MODELS + ("verify",)),
        (
            ("count", "--mu", "3,2,1", "--case", "1", "--method", "product"),
            MODELS + ("verify",),
        ),
        (("count", "--mu", "3,2,1", "--case", "1", "--method", "det"), MODELS),
        (("verify", "--suite", "delannoy", "--kmax", "2"), MODELS),
        (("verify", "--suite", "case12", "--kmax", "2"), MODELS),
    ],
    ids=["help", "count-product", "count-det", "verify-delannoy", "verify-case12"],
)
def test_verb_imports_only_what_it_runs(argv, absent):
    loaded = loaded_modules(CLI_MAIN, *argv)
    assert "aztec_triangles.cli" in loaded
    assert not {f"aztec_triangles.{name}" for name in absent} & loaded, loaded


def test_package_root_is_lazy_and_complete():
    assert loaded_modules("import sys, aztec_triangles") == set()
    assert len(aztec_triangles.__all__) == 60
    namespace = {}
    exec("from aztec_triangles import *", namespace)
    for name in aztec_triangles.__all__:
        assert namespace[name] is getattr(aztec_triangles, name)
        assert name in dir(aztec_triangles)
    with pytest.raises(AttributeError):
        aztec_triangles.double_factorial
