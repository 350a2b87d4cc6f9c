import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_partitions

import aztec_triangles
from aztec_triangles import cli, verify
from aztec_triangles.cli import main, parse_partition
from aztec_triangles.errors import IdentityError


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


def test_count_prints_any_size(capsys):
    # staircase 130's count has more digits than Python's default limit on
    # int-to-str conversion (4,300)
    from aztec_triangles.formulas import product_case1

    mu = ",".join(map(str, range(130, 0, -1)))
    code, out, err = run_cli(
        capsys, "count", "--mu", mu, "--case", "1", "--method", "product"
    )
    assert code == 0 and err == ""
    assert len(out.strip()) >= 4301
    assert out == f"{product_case1(130, 260)}\n"


def test_count_product_rejects_general_mu(capsys):
    code, _, err = run_cli(
        capsys, "count", "--mu", "3,1", "--case", "1", "--method", "product"
    )
    assert code == 2
    assert "product" in err


def test_product_that_is_no_count_exits_1(capsys, monkeypatch):
    # every shifted factorial 2: the Case 1 product at k = 3 is 2^3/45
    from aztec_triangles import formulas

    monkeypatch.setattr(formulas, "pochhammer", lambda x, i: 2)
    with pytest.raises(IdentityError, match="not a count at k=3, ell=6: 8/45"):
        formulas.product_case1(3, 6)
    code, out, err = run_cli(
        capsys, "count", "--mu", "3,2,1", "--case", "1", "--method", "product"
    )
    assert (code, out) == (1, "")
    assert err == "error: case 1 product not a count at k=3, ell=6: 8/45\n"


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


def test_enumerate_limit_above_maxsize_streams_all(capsys):
    argv = ("enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling")
    _, full, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--limit", "99999999999999999999")
    assert (code, err) == (0, "")
    assert out == full and len(out.splitlines()) == 5  # the header and 4 tilings


# 5,000 digits, more than the 4,300 that int() reads by default
LONG_INT = "1" * 5000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python reads an int of any length")
@pytest.mark.parametrize("argv, code, out_lines, err", [
    (("enumerate", "--mu", "2,1", "--case", "1", "--model", "tiling", "--limit", LONG_INT),
     0, 5, ""),  # the header and 4 tilings
    (("render", "--mu", "2,1", "--case", "1", "--tiling-index", LONG_INT, "--format", "ascii"),
     2, 0, f"error: tiling index {LONG_INT} out of range (0..3)\n"),
], ids=["limit", "tiling-index"])
def test_integer_options_of_any_length(capsys, argv, code, out_lines, err):
    # main lifts the limit on int digits before it reads argv; the default
    # limit is set around the call, whichever call ran before this one
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        got = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(before)
    assert (got[0], got[2]) == (code, err)
    assert len(got[1].splitlines()) == out_lines


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


class CountedWrites(io.RawIOBase):
    """A raw stream that keeps what it is given and counts the writes."""

    def __init__(self):
        self.data, self.writes = bytearray(), 0

    def writable(self):
        return True

    def write(self, b):
        self.data += b
        self.writes += 1
        return len(b)


def test_stream_is_written_in_blocks(monkeypatch):
    # stdout as ``python -u`` or PYTHONUNBUFFERED builds it: each write of the
    # text layer is one write of the raw stream.  The header and 3,328 lines
    # took 3,330 writes when each line was written alone.
    raw = CountedWrites()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(
        raw, encoding="utf-8", newline="\n", write_through=True))
    code = main(["enumerate", "--mu", "4,3,2,1", "--case", "1", "--model", "tiling"])
    assert code == 0
    assert hashlib.sha256(raw.data).hexdigest() == STREAM_DIGESTS["tiling"]
    assert raw.writes <= 20


COUNT_321_CASE_2 = 352


@pytest.mark.parametrize("model", ["paths", "sequence", "tableau", "tiling"])
def test_enumerate_limit_prints_a_prefix_under_the_full_count(capsys, model):
    argv = ("enumerate", "--mu", "3,2,1", "--case", "2", "--model", model)
    _, full, _ = run_cli(capsys, *argv)
    stream = full.splitlines()[1:]
    assert len(stream) == COUNT_321_CASE_2
    for limit in (0, 1, COUNT_321_CASE_2 - 1, COUNT_321_CASE_2, COUNT_321_CASE_2 + 3):
        code, out, err = run_cli(capsys, *argv, "--limit", str(limit))
        assert code == 0 and err == ""
        header, *items = out.splitlines()
        emitted = min(limit, COUNT_321_CASE_2)
        assert json.loads(header) == {
            "mu": [3, 2, 1], "case": 2, "model": model,
            "count": COUNT_321_CASE_2, "emitted": emitted,
        }
        assert items == stream[:emitted], limit


def model_enumerator(model):
    """The model's enumerator, called as f(mu, case)."""
    from aztec_triangles import domains, paths, sequences, tableaux

    return {
        "paths": paths.enumerate_path_families,
        "sequence": sequences.enumerate_sequences,
        "tableau": tableaux.enumerate_tableaux,
        "tiling": lambda mu, case: domains.enumerate_tilings(domains.build_domain(mu, case)),
    }[model]


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize("model", ["paths", "sequence", "tableau", "tiling"])
def test_enumerate_lines_are_each_items_json(capsys, model, case):
    # the stream encodes shared parts once; each line must still be exactly
    # json.dumps of that item's to_json
    for mu in sorted({*small_partitions(3, 3), (), (0, 0)}):
        expected = [json.dumps(x.to_json()) for x in model_enumerator(model)(mu, case)]
        argv = ("enumerate", "--mu", ",".join(map(str, mu)), "--case", str(case),
                "--model", model)
        for limit in (None, 0, 1):
            more = () if limit is None else ("--limit", str(limit))
            code, out, err = run_cli(capsys, *argv, *more)
            assert code == 0 and err == "", (mu, limit)
            assert out.splitlines()[1:] == expected[:limit], (mu, limit)


def test_render_every_tiling_index_draws_that_tiling(capsys):
    from aztec_triangles.domains import build_domain, enumerate_tilings, render

    tilings = enumerate_tilings(build_domain((3, 2, 1), 2))
    assert len(tilings) == COUNT_321_CASE_2
    for i, tiling in enumerate(tilings):
        code, out, _ = run_cli(
            capsys, "render", "--mu", "3,2,1", "--case", "2",
            "--tiling-index", str(i), "--format", "ascii",
        )
        assert code == 0 and out == render(tiling, "ascii"), i


@pytest.fixture
def built(monkeypatch):
    """How many of each of the four item classes are built."""
    from aztec_triangles.domains import Tiling
    from aztec_triangles.paths import PathFamily
    from aztec_triangles.sequences import PartitionSequence
    from aztec_triangles.tableaux import SuperSymplecticTableau

    made = Counter()
    for cls in (Tiling, PartitionSequence, SuperSymplecticTableau, PathFamily):
        def counted(kind, *args, new=cls.__new__, name=cls.__name__):
            made[name] += 1
            return new(kind, *args)

        monkeypatch.setattr(cls, "__new__", counted)
    return made


BIG_CASE_2 = ("--mu", "4,3,2,1", "--case", "2")


@pytest.mark.parametrize(
    "argv, items",
    [
        (("crosscheck", *BIG_CASE_2), 0),
        (("count", *BIG_CASE_2, "--method", "brute"), 0),
        (("enumerate", *BIG_CASE_2, "--model", "sequence", "--limit", "10"), 10),
        (("render", *BIG_CASE_2, "--tiling-index", "8358", "--format", "ascii"), 1),
    ],
    ids=["crosscheck", "count", "enumerate-limit", "render-index"],
)
def test_each_call_builds_only_what_it_prints(capsys, built, argv, items):
    # the counts come from the searches' goal counts; only printed items are
    # wrapped in their model's class
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out
    assert sum(built.values()) == items, built


@pytest.mark.parametrize("cap, code, out", [("425888", 0, "32032\n"), ("425887", 3, "")])
def test_brute_count_cap_threshold(capsys, monkeypatch, cap, code, out):
    # the (4,3,2,1) case-2 tiling search walks exactly 425,888 nodes
    monkeypatch.setenv("AZTEC_CAP", cap)
    assert run_cli(capsys, "count", *BIG_CASE_2, "--method", "brute")[:2] == (code, out)


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


# sha256 of the `verify --suite SUITE [--kmax KMAX]` stdout: every suite at
# its default sweep, and the larger sweeps of every suite
VERIFY_DIGESTS = {
    ("delannoy", None): "bd6f866049660458e530a86ef811429166e32a2ce0025e31184cdd331c8e52b3",
    ("kernels", None): "c4d977f0e2760ddb8b7a5f91ad84e2cdd3ed93f9d928dbbf6df3abc9aaebf21e",
    ("id1", None): "772e7490e679c25f4372926a2cfb2334e3b646969312ce94fc94348fe30b883d",
    ("id2", None): "77a9fb7d667846c34eba58d6a1ab11d6b2d21966ed7e97ffaa2a278867667dac",
    ("detprop", None): "e459308b71575cf816d2bf9654d7fbe677ab40a3c2aae41ef9327752b0f5ab27",
    ("main", None): "40efc9aa6ed7a9d8dd98e04a54180165590e03fa805309ad2f11fae134ed41d6",
    ("degree", None): "2e6625d8a350c2a20b1454a951d21128aa8e5a9e9b0039994d2eeffb55398942",
    ("case12", None): "54aef4f0ba4ebd1d28748c07a50b4b0cbe043106f497ece1c4476206057e305c",
    ("kernels", 12): "c91d7ca75624c5c93a1dbe76d41366c5745d675e4c0557018276f0d27944202e",
    ("id1", 20): "b17884e49fcfb9e8f015578a79f5cc5b0551d936861b051af3e241d225403a9f",
    ("id2", 20): "c741e54fd6c47301c39e50f26e1d54f7dc7a1ac09ea26fcb356f2b34621d609f",
    ("delannoy", 30): "806214436e60e218e2668506552b5e6ffdd9a761200e14e8f1ab87ce10451134",
    ("degree", 8): "8b632effd8aa5a25289e583bb0f7f96787b320a911ee1ededf0e14017235b971",
    ("main", 10): "e64f994ab6ab5281314abd40950d194c80a227522739fd49ca4f4dafafd80e82",
    ("kernels", 14): "d03025b44d25d0643873767c3c6b211ccbc3dc316e194a19b6c4aecedb6e2055",
    ("detprop", 12): "504a3d6e57d14aa13ddeec69e9f98585d071473323951ba626aba573dfb28c4e",
    ("case12", 10): "1c289fa6bcf14e73da33ec1821d90b99c0998eb1622caeba292b9cf366d7ecdf",
}


@pytest.mark.parametrize("suite, kmax", list(VERIFY_DIGESTS))
def test_verify_digest(capsys, suite, kmax):
    argv = ("verify", "--suite", suite)
    if kmax is not None:
        argv += ("--kmax", str(kmax))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite, kmax]


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


# sha256 of `render` stdout, keyed by "mu case format [tiling index]"; taken
# before the domain and tiling drawers became one drawer per format.
RENDER_DIGESTS = {
    "3,2,1 1 ascii": "168fa252ebd205fab52e6634786effa799998acf70a8de7176d179430c7cb07d",
    "3,2,1 1 ascii 0": "ba19b4de23e266e5826748a38399191dfe522affe93cf81edcfdc702afe66c80",
    "3,2,1 1 svg": "585d47d5dc4f0df74e232d69bce7509429547ff7e75a046704c997ef39e04f3a",
    "3,2,1 1 svg 0": "0a6e1847298767e1635badcad66854c3bfb53904a39a4ea9cfcb686593b01db3",
    "3,2,1 2 ascii": "061c017b70a5582e47d408da8bfa6bbdb0af9c7646ab1136e7a3fe341ccd278d",
    "3,2,1 2 ascii 0": "3d20621159550e329eff94560a6a60baaa1398afd40f3ff881f3dbab3de5080f",
    "3,2,1 2 svg": "545785230e9648718509bea9c4701884a67319f072cf6a594c7e9e5769ec6db8",
    "3,2,1 2 svg 0": "2626bb9336493f0b54c34014833ea6294b5912a864ec1c7e0577853d49ac8372",
    "2,2,0 1 ascii": "b70c55d8f9374068dc30ff925803b8eaffb455fd7b80a94fb3b7ab889dfd732d",
    "2,2,0 1 ascii 0": "e43bfa5700a4abaecfce024bbd5d46cb7205218597d705edd46ec6b931f0429c",
    "2,2,0 1 svg": "fe0520bea0b061cd7edcacdc05ccfd08feaa4e1033a9715c989b155a609be95b",
    "2,2,0 1 svg 0": "4997ba6fdcb5622f71bfa69d8d0dcf22b93125141899631cf115b802ffbe9b7d",
    "2,2,0 2 ascii": "501f9dd162b2e5bc2f727bb3b7671c06f7aaf1dd3dfed389e3ccab8860125912",
    "2,2,0 2 ascii 0": "a569587b5ad314ce146f25c7787aa92c8bad9a260700a6822497f48a313d4ba8",
    "2,2,0 2 svg": "2fb732bc160f9614a8ec0d0125a9ed2f8434ecf292c03f7764c15de01f010a05",
    "2,2,0 2 svg 0": "29239f7d5f68c968c6e67feb60609dec2812abb39e01387914bc699bfb97b5cb",
}


@pytest.mark.parametrize("spec", sorted(RENDER_DIGESTS))
def test_render_digest(capsys, spec):
    mu, case, fmt, *index = spec.split()
    argv = ["render", "--mu", mu, "--case", case, "--format", fmt]
    if index:
        argv += ["--tiling-index", *index]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RENDER_DIGESTS[spec]


# sha256 of `render --format svg` stdout for every shape of
# small_partitions(2, 3) in both cases: (the domain, tiling index 0); taken
# while SVG was still serialised through xml.etree.
SVG_DIGESTS = {
    ("", 1): ("db84521381fdec30bb52dcd901debfe4a426c719f7840ddf05dae4bba09e355a",
              "db84521381fdec30bb52dcd901debfe4a426c719f7840ddf05dae4bba09e355a"),
    ("", 2): ("db84521381fdec30bb52dcd901debfe4a426c719f7840ddf05dae4bba09e355a",
              "db84521381fdec30bb52dcd901debfe4a426c719f7840ddf05dae4bba09e355a"),
    ("2", 1): ("3e87bf5512b1db491fff882e381742f7efa8ed5f8b3a3813fb79cbf54ca40d0e",
               "6b8e703a4d62b50f54dcccd41e320b43882ce6918b33f45c7810d57eb251b407"),
    ("2", 2): ("e7116a1e790dba4e25dc396a88de19ac92f9a06a72625779c8507b6e2fae74c9",
               "55e9a6e48c323548f0cb39b6198354ddb7a370b418083ecc538d675a4838b520"),
    ("1", 1): ("d7b9a22c6e4aa64d8cf4c3dbf1c700a50326865b7a4dbfc0c33160104753aa99",
               "ebc1ec1c32baabef43c360487cb0a4d097f2e9aed5626acfc47022019957fef1"),
    ("1", 2): ("cfbf30fb1beffa18877da1bdfe779bdf15a21bb0ce9fe93776799af504515806",
               "c24fe047493058e015d4d7b344d13c099bd476224eaac5c191616d6869de9a25"),
    ("0", 1): ("dc510948bc1aaa46159f4f68b4c232b6be985a42d9c6cda72f8942e5e9e3d95b",
               "dc510948bc1aaa46159f4f68b4c232b6be985a42d9c6cda72f8942e5e9e3d95b"),
    ("0", 2): ("ac4ee86e6e2a8b09f91fa8d1f5d597e64f36f5a8c39a17d0f8204536d43c9a80",
               "f6fd254ce2d32a519c120ba8e046d459e8bae829c3b4825a9fca58c7ca6164c6"),
    ("2,2", 1): ("521f01c21c64b8dc94b2e6d4ccbb0abe3befd44c7be1d0bf85fafcbac64353a8",
                 "29de0c3fa8ac48c28f6ef94492bf79d29b7bbb46223e4171d36aff684e843c49"),
    ("2,2", 2): ("a40974d0f101238fe9f4f16ade3eefd038a232062a93754f74fd607ed2fa0bf0",
                 "55ea4e0f65d010a6ed02f917293a8382587b6c034668a01c828824511ca54661"),
    ("2,1", 1): ("c8f948799a38d31458b4683ab6229bcac17870ee86a7e3320f83a4843e33c274",
                 "71a53eb4c8a407121bf63430bb7063f2e5568b068a8ecef9cb5768271ae9d197"),
    ("2,1", 2): ("489db19b38a0f884c2ff2c866919c08dd649f4d51e985e9cec392cf9c6e16a64",
                 "7ec57d81fd42995769f26407e1fdbc2d0b1bdf0cfcba039c9e0c9b19f1b4ca7d"),
    ("2,0", 1): ("a2ff59dbc4457a9e825069ee6588794f1c43ebfedb746d0080a8ef458d4ed600",
                 "c925e6a9446efcbbf5265eb088868b58ed8b791e869f29817c6313a6f9d8399c"),
    ("2,0", 2): ("b4f0f179c9c278feef3e7ce642eac09a9e54cecac2df577c657a4b047e54c0ad",
                 "f735cd6c3c228e59e85e467a77b91b0f34da3b03c7de0e6ce685e429171ce7f3"),
    ("1,1", 1): ("defe32cd3af562c3dbc399e8602e2a8e2d78161344531874fffa1f66c303f0ae",
                 "43f3c64d70e40fcb2a9fd5c22ea72b1e142541ba8ace995eadf8f7b2b06d531d"),
    ("1,1", 2): ("6b09977e2a96f6ead08d73e781d3dc67647a67a8ce1b4e05096e003c0e5dadb3",
                 "8fbbc1bcc212d3c8939afffffbd677b98f97f5bfeca320ef20b07d4702141cc8"),
    ("1,0", 1): ("10f8623e41c897ba096105b42cada0811e045a62ac9c7f89229fc36aecfb004e",
                 "1c5920c375db8d94f91671b25424d6ee5bf00af0459f0836700ec6c4bbede2e0"),
    ("1,0", 2): ("4e8b880dfcebc8a3ba8614a58c9afa693d0483a84c913effe811b1bb6168fa5a",
                 "b854fea77bcbdfeff80daad5a0954424d2944d0b7ff029924a6ad2c927dbd518"),
    ("0,0", 1): ("91bfb93c39028402f4f0964a60ed5032b47e5ddf7f59041663399dababac5321",
                 "5a1ebc467524c0fa755378d528616491989a28396a77481d2c8bfdefdffc14ca"),
    ("0,0", 2): ("7ce64bcd06995ec57cca2cc37d14544449bd00730be18debd9c3c0c5d9895032",
                 "080acd5ee2308c3c53b1b4cc125efe05157b2bc07b487b7c0969f1854169ae23"),
    ("2,2,2", 1): ("3fed82f2bd294f85287a3a8a540ff6d31e56215fa879e675cbfbe0948b47b533",
                   "7f14c27934acd2134ff6c07239a9eb0cb85469e7d94823af20194173c5de92a2"),
    ("2,2,2", 2): ("a8edf8da2ee244715d95692eac38e63b52f01407ffc07324e4a99c0cb8056a54",
                   "cdda0182ba909d60b554f035a8c8d4a841775981cd1ea6ddfa64ad787417daa8"),
    ("2,2,1", 1): ("781751440c10fd9a92e8c8a37ecba6194d790e54e6b1b068ebe8e21ed411ea0c",
                   "f637d3a9e13e81dd79b47058832a650c4c5a68cdaf71bf1831704cb2db5b2138"),
    ("2,2,1", 2): ("4a5de157a1c720bbc3c255a0f6acfedcc613f1c0c5fa25c2566b89e86f41ffb1",
                   "1255cd688ef9d03b0d7f410fe93e1d6265826808b60a443791f7c4606cdd7df9"),
    ("2,2,0", 1): ("fe0520bea0b061cd7edcacdc05ccfd08feaa4e1033a9715c989b155a609be95b",
                   "4997ba6fdcb5622f71bfa69d8d0dcf22b93125141899631cf115b802ffbe9b7d"),
    ("2,2,0", 2): ("2fb732bc160f9614a8ec0d0125a9ed2f8434ecf292c03f7764c15de01f010a05",
                   "29239f7d5f68c968c6e67feb60609dec2812abb39e01387914bc699bfb97b5cb"),
    ("2,1,1", 1): ("6812c0fbdaf8b476349376401c9d29d2c2f189d0df4b3bd14093b21658a3e6c2",
                   "e658ab86b131aabb005a3c07bd1e45ff7316ba469125452a114dd208aa3314b4"),
    ("2,1,1", 2): ("6e699ad924965074db1b2fd049c0c08f3d4c7a59943ed15c7ca5326cbac74357",
                   "167c09611db346b00f51f60edaef16a5f050872a6fd916d3fe949a9ce86b2118"),
    ("2,1,0", 1): ("dbed37a5358e499bdb066da05e22315308df1893cdfa76949c1032e51b18ea11",
                   "dc75e67fa8076c0b278c4b9bd7c4ff26267816beba17cb433154397f966cad4d"),
    ("2,1,0", 2): ("dd9a06bf5969f75c091fd957d3231f10fd29b001c699b482e83da4ab36d24458",
                   "234592e7800a0d94606180a9090384ce469944d03e4c286cf070b03def6bf123"),
    ("2,0,0", 1): ("d79cd02782c4d3fc873dd99f6eb95f1d27d43ff099e0a99c90a9244d6d70feb6",
                   "67544fada9a1ca3f82b2895a76b1dea019da24613aa6ce187f8e43b43ab2e635"),
    ("2,0,0", 2): ("a5cc98e197dda0004143f8147ea168bb527a99cbf66368d95281df05310c35d8",
                   "90ae4a88eb5670b042d787b70b2b430d13e282fa218893dc805df04daaa56137"),
    ("1,1,1", 1): ("f63d745d082aa9a645cbdec8d9f1844e98b8febb9eddb27444c226a92e56ab51",
                   "897d48c3926d24cb540c3d779c968b51f895ad06056418794264e49782e31a54"),
    ("1,1,1", 2): ("faa0a8506d64c47ae3d88b154b130fc61034c0418ba999d84bffdb9792ca0abc",
                   "4ac6ccb15e852584b890a95daeed32a7ad926fd334769c5704d9999d14caaa4e"),
    ("1,1,0", 1): ("023bce2cd015d9f9d487b0408eb8fbf19e3c1c13e51a6d3e67a84c271c9c7667",
                   "f50a48ceda776fd561ebce3b64f8ff0404e006cbfdc028d3274005a64c92154f"),
    ("1,1,0", 2): ("b7bee320d1695eb11d7f1661c7367d90c5e1db0de9ac56c852e1f7e7accb9836",
                   "037f7118546aed34b360c4e366f148c90628992a8f25ca481b2ea3adcf71135e"),
    ("1,0,0", 1): ("d65efcb36bb376f2d0425f9b301bdbeac6067d6cfeaea5dd322ebc05a84a0bca",
                   "96101ba1765a739f0a3339e6428984430969b582194e1889483a5a55a8fe7cc2"),
    ("1,0,0", 2): ("612a2bf30528f5df550748a5f5ff9bf893d07af506ea21f87dd188d9fcd4cdf5",
                   "229c4c5c1ba44b2875ff22ebe94edb16fd295cdd10baed6e59092d240bef609c"),
    ("0,0,0", 1): ("ebe97ed32602211666d8b63804c752b27d3d4770e6a85fda1da6f100b255c283",
                   "3157fe0c8d66e5d80e77574419e49702cbf6d95bb530dcf2ee7908ca9844c89b"),
    ("0,0,0", 2): ("63e0c450ae86cb76588987bc5beed6478d559bdad23008c96535828b1405217c",
                   "b34904f5e4dc781d6ac8abbb0fd6741f785b0b4be37f7c63786ff1823bfa6735"),
}


@pytest.mark.parametrize("mu, case", sorted(SVG_DIGESTS))
def test_svg_digest(capsys, mu, case):
    argv = ["render", "--mu", mu, "--case", str(case), "--format", "svg"]
    for extra, digest in zip(([], ["--tiling-index", "0"]), SVG_DIGESTS[mu, case]):
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


SMALL_CASE_1 = ("--mu", "2,1", "--case", "1")

# every call that runs a search, each of which reads the cap from AZTEC_CAP
SEARCH_CALLS = {
    "count": ("count", *SMALL_CASE_1, "--method", "brute"),
    **{f"enumerate-{model}": ("enumerate", *SMALL_CASE_1, "--model", model)
       for model in cli._MODELS},
    "crosscheck": ("crosscheck", *SMALL_CASE_1),
    "render-index": ("render", *SMALL_CASE_1, "--tiling-index", "0", "--format", "ascii"),
}


@pytest.mark.parametrize(
    "argv, cap",
    [
        pytest.param(argv, cap, id=cap if call == "count" else f"{call}-{cap}")
        for call, argv in SEARCH_CALLS.items()
        for cap in ("abc", "0", "-3")
    ],
)
def test_bad_cap_exit_2(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("AZTEC_CAP", cap)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: AZTEC_CAP must be a positive integer, got {cap!r}\n"


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


@pytest.mark.parametrize(
    "argv, search",
    [
        (("count", "--mu", "5,4,3,2,1", "--case", "1", "--method", "brute"), "tiling"),
        (("enumerate", "--mu", "5,4,3,2,1", "--case", "2", "--model", "paths"), "path"),
    ],
    ids=["tilings", "paths"],
)
def test_hopeless_search_exits_3_at_once(capsys, monkeypatch, argv, search):
    # both staircase-5 searches are over the default cap of 10^7 nodes; their
    # repeated subtrees are charged in bulk, so they stop without walking them
    monkeypatch.delenv("AZTEC_CAP", raising=False)
    began = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - began < 2
    assert code == 3 and out == ""
    assert err == f"error: {search} search exceeded cap of 10000000 nodes\n"


def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch):
    def exhausted(model, mu, case):
        raise MemoryError

    monkeypatch.setattr(cli, "_items", exhausted)
    assert run_cli(capsys, "count", *SMALL_CASE_1, "--method", "brute") == (
        3, "", "error: out of memory running count\n")


def test_out_of_memory_in_a_child_exits_3():
    # the single-path search of a 300,000-cell part fills a 256 MiB address
    # space in about 1.5 s; the message is written after it is freed
    import resource

    limit = 256 << 20
    began = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "aztec_triangles.cli", "enumerate", "--mu", "300000",
         "--case", "1", "--model", "paths", "--limit", "1"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert time.perf_counter() - began < 5
    assert (child.returncode, child.stdout, child.stderr) == (
        3, "", "error: out of memory running enumerate\n")


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
    # under "all" one empty suite is enough: the others' records are no pass
    for suite, kmax in (("main", "-1"), ("degree", "0"), ("all", "0"), ("all", "-1")):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--kmax", kmax)
        assert code == 2 and out == "" and "no records" in err, suite


ZEROS_600 = ",".join(["0"] * 600)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--mu", "1200", "--case", "1", "--model", "paths"),
        ("enumerate", "--mu", ZEROS_600, "--case", "1", "--model", "sequence"),
        ("enumerate", "--mu", ZEROS_600, "--case", "1", "--model", "tableau"),
    ],
    ids=["paths", "sequence", "tableau"],
)
def test_deep_search_finishes(capsys, monkeypatch, argv):
    # one object 1,200 steps deep: the searches walk on an explicit stack,
    # so depth is limited by the cap alone
    monkeypatch.delenv("AZTEC_CAP", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out.splitlines()[0])["count"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--mu", "1200", "--case", "1", "--method", "brute"),
        ("enumerate", "--mu", "1200", "--case", "1", "--model", "tiling"),
    ],
    ids=["count", "enumerate"],
)
def test_deep_search_over_cap_exits_3(capsys, monkeypatch, argv):
    # the (1200,) tiling takes 720,601 nodes; at the default cap it finishes
    # with 1 but needs about 20 s and 380 MB, so it is run here over a cap
    monkeypatch.setenv("AZTEC_CAP", "100000")
    began = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - began < 2
    assert code == 3 and out == ""
    assert err == "error: tiling search exceeded cap of 100000 nodes\n"


def test_det_equals_product_on_staircase_100(capsys):
    mu = ",".join(str(i) for i in range(100, 0, -1))
    outs = [
        run_cli(capsys, "count", "--mu", mu, "--case", "1", "--method", method)
        for method in ("det", "product")
    ]
    assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][2] == ""


STAIRCASE_4_PADDED = "4,3,2,1" + ",0" * 2996


@pytest.mark.parametrize("case", [1, 2])
@pytest.mark.parametrize(
    "mu", [",".join(["0"] * 3000), STAIRCASE_4_PADDED], ids=["zeros", "staircase-4"]
)
def test_det_on_3000_parts_is_fast(capsys, mu, case):
    # zero parts stay out of the LGV block, so the count takes the same time
    # with 3,000 parts as without; end to end, in a fresh interpreter
    if mu == STAIRCASE_4_PADDED:
        code, expected, _ = run_cli(
            capsys, "count", "--mu", mu, "--case", str(case), "--method", "product"
        )
        assert code == 0
    else:
        expected = "1\n"
    began = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "aztec_triangles.cli", "count", "--mu", mu,
         "--case", str(case), "--method", "det"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert time.perf_counter() - began < 1
    assert (child.returncode, child.stdout, child.stderr) == (0, expected, "")


def test_enumerate_header_counts_above_maxsize(capsys, monkeypatch):
    # 1,207,261,554,758,889,670,656 chains, more than len() can return; the
    # zero rows of the bound add nothing to the chain search
    from aztec_triangles.formulas import product_case1

    monkeypatch.setenv("AZTEC_CAP", str(10**30))
    began = time.perf_counter()
    code, out, err = run_cli(
        capsys, "enumerate", "--mu", "4,3,2,1" + ",0" * 146, "--case", "1",
        "--model", "sequence", "--limit", "0",
    )
    assert time.perf_counter() - began < 3
    assert code == 0 and err == ""
    header = json.loads(out)
    assert header["count"] == product_case1(4, 300) > sys.maxsize
    assert header["emitted"] == 0


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (("count", *SMALL_CASE_1, "--method", "brute"), 0, f"{2**64}\n", ""),
        (("crosscheck", *SMALL_CASE_1), 1,
         json.dumps({"mu": [2, 1], "case": 1, "sequences": 2**64, "tableaux": 2**64,
                     "paths": 2**64, "tilings": 2**64, "determinant": 4,
                     "agree": False}) + "\n", ""),
        (("render", *SMALL_CASE_1, "--tiling-index", str(2**64), "--format", "ascii"),
         2, "", f"error: tiling index {2**64} out of range (0..{2**64 - 1})\n"),
    ],
    ids=["count", "crosscheck", "render-index"],
)
def test_goal_counts_above_maxsize(capsys, monkeypatch, argv, code, out, err):
    # every search stands in for one with 2^64 goals; len() would raise
    from aztec_triangles.search import Found

    monkeypatch.setattr(cli, "_items", lambda model, mu, case: Found(
        None, 2**64, None, None))
    assert run_cli(capsys, *argv) == (code, out, err)


# sha256 of each help text at 80 columns (Python 3.11 and 3.12 argparse);
# the verify one lists the suite names.
HELP_DIGESTS = {
    (): "ac524706fa6fd1e772dcdd4e4794987571ea70b80a13669fd49a64b454a231d2",
    ("count",): "ea8532f33aa0e33373405f2f3c7f855cdc1780ec22b9124efdece26dba7c166c",
    ("enumerate",): "7dde9548872fcbd569c2afa5b9e7ac6b0b78af94a79f2f21b05e89fcb1c4055f",
    ("crosscheck",): "7db10175a95b8f1e9522798179fdd5b9692037fc222570565673cc9d5bcc6048",
    ("verify",): "f6d96d5694f4e8073a5b74668d8ec409bef79bf6b16451209c162dfbe3c430da",
    ("render",): "b3d3e940ea7894c3b5920b7a3b8ad22ef980452cb9a61c46757090c46aec4800",
}
if sys.version_info >= (3, 13):
    # 3.13's argparse breaks a long usage line at another place
    HELP_DIGESTS |= {
        ("enumerate",): "56662f296d2d8af18a227ca114229863e43cad096bda5f507195873402e20df0",
        ("verify",): "37149b6024301deda19ba0fa0710a6bd9cb8bdcf7d49853045f9033ffa695f85",
        ("render",): "c5a78cab86ec66609bcff50957ecf5a9a3d5f02d419eda16ef6068e7e4a3bc21",
    }


@pytest.mark.parametrize("verb", sorted(HELP_DIGESTS))
def test_help_text_pinned(capsys, monkeypatch, verb):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *verb, "--help")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[verb]


def test_suite_names_match_verify():
    assert tuple(sorted(verify.SUITES)) == cli.SUITE_NAMES


# a well-formed call of each verb, which the reader reads without argparse
WELL_FORMED = {
    "count": ("count", "--mu", "3,2,1", "--case", "1"),
    "enumerate": ("enumerate", "--case", "2", "--model", "tiling", "--mu", "2,1",
                  "--limit", "1"),
    "crosscheck": ("crosscheck", "--mu", "2,1", "--case", "1"),
    "verify": ("verify", "--suite", "delannoy", "--kmax", "2"),
    "render": ("render", "--mu", "2,1", "--case", "1", "--tiling-index", "0",
               "--format", "svg"),
}


@pytest.mark.parametrize("argv", WELL_FORMED.values(), ids=list(WELL_FORMED))
def test_reader_reads_a_well_formed_call_as_argparse_does(argv):
    assert vars(cli._read_argv(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("frob",),
        ("count", "--mu", "1", "--case"),
        ("count", "--mu", "1", "--case", "1", "--case", "2"),
        ("count", "--mu", "1"),
        ("count", "--mu", "1", "--case", "-1_000"),
        ("count", "--mu", "1", "--case", "x"),
        ("count", "--mu", "1", "--case", "3"),
        ("count", "--mu", "2,1", "--case", "1", "--meth", "det"),
    ],
    ids=["empty", "unknown-verb", "no-value", "repeat", "required", "option-like",
         "type", "choices", "abbreviation"],
)
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_argv(argv) is None


def test_abbreviation_still_reads(capsys):
    assert run_cli(capsys, "count", "--mu", "2,1", "--ca", "1", "--meth", "det") == (
        0, "4\n", "")


LONG_FLAGS = sorted({flags[-1] for _, _, options in cli._VERBS.values()
                     for flags, _ in options})


# values argparse treats apart: negative numbers (``-`` then decimal digits,
# Arabic-Indic ones included) are values, other strings starting with ``-``
# are options, and a lone ``-`` or an empty string is a value
ODD_VALUES = ("-1", "-1_000", "-\u0663", "-", " -1", "", "1.0", "-h", "--mu", "-1.5",
              "-1\n", "\u0663", "1_0", "all", "extra")


@st.composite
def _argvs(draw):
    """argv near the reader's form: a verb, then its required options and
    some others with good values, in any order.  A few pairs take a form
    that only argparse reads (an abbreviated or short flag, ``--flag=value``,
    an odd value), and some argv get a stray pair or a trailing token."""
    verb = draw(st.sampled_from([*cli._VERBS, "frob", "--help"]))
    pairs = []
    for flags, spec in cli._VERBS[verb][2] if verb in cli._VERBS else ():
        if spec.get("required") or draw(st.booleans()):
            good = [str(c) for c in spec.get("choices", ())] or ["0", "2", "2,1"]
            pairs.append((flags, draw(st.sampled_from(good))))
    if draw(st.integers(0, 3)) == 0:
        pairs.append(((draw(st.sampled_from(LONG_FLAGS)),),
                      draw(st.sampled_from(ODD_VALUES))))
    argv = [verb]
    for flags, value in draw(st.permutations(pairs)):
        form = draw(st.integers(0, 14))  # most pairs are left as they are
        flag = flags[-1]
        if form == 0:
            flag = draw(st.sampled_from([flag[:n] for n in range(2, len(flag))]
                                        + list(flags[:-1])))
        elif form == 1:
            value = draw(st.sampled_from(ODD_VALUES))
        argv += [f"{flag}={value}"] if form == 2 else [flag, value]
    if draw(st.integers(0, 3)) == 0:
        argv.append(draw(st.sampled_from(ODD_VALUES)))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
@example(["count", "--mu", "1", "--case", "1", "--m", "det"])  # ambiguous
@example(["count", "--mu", "1", "--case", "1", "--", "det"])
@example(["count", "--mu", "-h", "--case", "1"])
@example(["enumerate", "--mu", "1", "--case", "1", "--model", "tiling", "--limit", "-1_000"])
@example(["verify", "--suite", "main", "--kmax", "-\u0663"])
@example(["count", "--mu", "2,1", "--case", "1"])
def test_reader_agrees_with_argparse(argv):
    # whatever the reader reads, argparse reads the same; whatever argparse
    # refuses, the reader leaves to it
    read = cli._read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    assert read is None or vars(read) == parsed


def _values(good, bad):
    """A good value, or one time in ten a bad one."""
    return st.integers(0, 9).flatmap(lambda roll: bad if roll == 0 else good)


_PARTITIONS = sorted({",".join(map(str, mu)) for mu in small_partitions(3, 4)})
_INDICES = _values(st.integers(-2, 40), st.just(2**64)).map(str)
# each option's values in the exit-code contract
CONTRACT_VALUES = {
    "--mu": _values(st.sampled_from(_PARTITIONS),
                    st.sampled_from(["", ",,", "a", "1.5", "-1", "1,2"])),
    "--case": _values(st.sampled_from(["1", "2"]), st.sampled_from(["0", "3", "x"])),
    "--method": _values(st.sampled_from(["det", "product", "brute"]), st.just("fast")),
    "--model": _values(st.sampled_from(cli._MODELS), st.just("domino")),
    "--format": _values(st.sampled_from(["ascii", "svg"]), st.just("png")),
    "--suite": _values(st.sampled_from([*cli.SUITE_NAMES, "all"]), st.just("none")),
    "--limit": _INDICES,
    "--tiling-index": _INDICES,
    "--kmax": st.integers(-3, 6).map(str),
}
# AZTEC_CAP: unset, below the default of 10^7, above it, or not a positive int
CAPS = _values(st.sampled_from([None, None, "1", "1000", str(2**70)]),
               st.sampled_from(["0", "-3", "x"]))


@st.composite
def _contract_calls(draw):
    """A verb with small or malformed values for its options (never
    ``--output``, which writes a file), a few given as an abbreviation or as
    ``--name=value``, sometimes with an unknown flag; and an AZTEC_CAP."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    pairs = []
    for flags, spec in cli._VERBS[verb][2]:
        flag = flags[-1]
        if flag == "--output" or not draw(st.integers(0, 19) if spec.get("required")
                                          else st.booleans()):
            continue
        value = draw(CONTRACT_VALUES[flag])
        form = draw(st.integers(0, 9))  # most pairs are left as they are
        if form == 0:
            flag = draw(st.sampled_from([flag[:n] for n in range(3, len(flag))]))
        pairs.append([f"{flag}={value}"] if form == 1 else [flag, value])
    if draw(st.integers(0, 9)) == 0:
        pairs.append(draw(st.sampled_from([["--frob"], ["--frob", "1"], ["--frob=1"]])))
    argv = [verb, *(token for pair in draw(st.permutations(pairs)) for token in pair)]
    return argv, draw(CAPS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_contract_calls())
@example((["crosscheck", "--mu", "3,3,3,3", "--case", "2"], None))
@example((["crosscheck", "--mu", "3,3,3,3", "--case", "2"], "1000"))
@example((["enumerate", "--mu", "3,3,3", "--case", "2", "--model", "paths"], "1"))
@example((["count", "--mu", "3,2,1", "--case", "1", "--method", "brute"], "1"))
@example((["render", "--mu", "2,1", "--case", "1", "--tiling-index", str(2**64),
           "--format", "svg"], None))
@example((["verify", "--suite", "all", "--kmax", "0"], None))
def test_exit_code_contract(call):
    # every small or malformed call exits 0, 2 or 3 (these shapes are small
    # enough that no check fails), 3 only under a cap below the default,
    # never with a traceback, and any failure ends in one error line
    argv, cap = call
    before = os.environ.get("AZTEC_CAP")
    if cap is None:
        os.environ.pop("AZTEC_CAP", None)
    else:
        os.environ["AZTEC_CAP"] = cap
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        if before is None:
            os.environ.pop("AZTEC_CAP", None)
        else:
            os.environ["AZTEC_CAP"] = before
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 3:
        assert cap in ("1", "1000")
    if code:
        lines = err.splitlines()
        assert err.endswith("\n") and "error: " in lines[-1]
        assert sum("error:" in line for line in lines) == 1
    elif argv[0] in ("crosscheck", "verify"):
        json.loads(out)
    elif argv[0] == "enumerate":
        for line in out.splitlines():
            json.loads(line)


SRC = Path(aztec_triangles.__file__).resolve().parents[1]


WATCHED = ("dataclasses", "inspect")
# what only a call that prints JSON or builds a Fraction needs
DEFERRED = ("json", "fractions", "decimal")
# what only help and usage errors need
ARGPARSE = ("argparse", "gettext", "locale")


def loaded_modules(code, *argv):
    """The package's submodules, and those of ``WATCHED``, ``DEFERRED`` and
    ``ARGPARSE``, in sys.modules after a fresh interpreter runs ``code``,
    which must import ``sys``."""
    code += (
        "\nprint(sorted(m for m in sys.modules"
        f" if m.startswith('aztec_triangles.') or m in {WATCHED + DEFERRED + ARGPARSE!r}))"
    )
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


SEARCH = "aztec_triangles.search"


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("--help",), DEFERRED + (SEARCH,)),
        (("count", "--mu", "3,2,1", "--case", "1", "--method", "det"), DEFERRED + (SEARCH,)),
        (("count", "--mu", "3,2,1", "--case", "1", "--method", "product"),
         DEFERRED + (SEARCH,)),
        (("render", "--mu", "3,2,1", "--case", "1", "--format", "ascii"),
         DEFERRED + (SEARCH,)),
        (("verify", "--suite", "delannoy", "--kmax", "2"), (SEARCH,)),
        (("verify", "--suite", "main", "--kmax", "2"), (SEARCH,)),
    ],
    ids=["help", "count-det", "count-product", "render", "verify-delannoy", "verify-main"],
)
def test_call_loads_only_what_it_prints_and_computes(argv, absent):
    # an integer count builds no Fraction, only the verbs that print JSON
    # load json, and the search engine is a module of its own, which a call
    # that searches nothing never compiles
    for name in absent:
        importlib.import_module(name)  # each is a module, so its absence counts
    loaded = loaded_modules(CLI_MAIN, *argv)
    assert "aztec_triangles.cli" in loaded
    assert not set(absent) & loaded, loaded


@pytest.mark.parametrize(
    "argv, loads",
    [*[(argv, False) for argv in WELL_FORMED.values()],
     (("--help",), True), (("count", "--mu", "1"), True)],
    ids=[*WELL_FORMED, "help", "usage-error"],
)
def test_only_help_and_usage_errors_load_argparse(argv, loads):
    loaded = loaded_modules(CLI_MAIN, *argv)
    assert "aztec_triangles.cli" in loaded
    if loads:
        assert "argparse" in loaded
    else:
        assert not set(ARGPARSE) & loaded, loaded


MODEL_MODULES = {"paths": "paths", "sequence": "sequences", "tableau": "tableaux",
                 "tiling": "domains"}


@pytest.mark.parametrize(
    "argv, module",
    [
        (("verify", "--suite", "kernels", "--kmax", "2"), "verify"),
        (("verify", "--suite", "delannoy", "--kmax", "2"), "verify"),
        *[(("enumerate", "--mu", "2,1", "--case", "2", "--model", model), module)
          for model, module in MODEL_MODULES.items()],
        (("crosscheck", "--mu", "2,1", "--case", "2"), "paths"),
        (("count", "--mu", "2,1", "--case", "2", "--method", "brute"), "domains"),
        (("render", "--mu", "2,1", "--case", "2", "--tiling-index", "1",
          "--format", "ascii"), "domains"),
    ],
    ids=["kernels", "delannoy", *[f"enumerate-{m}" for m in MODEL_MODULES],
         "crosscheck", "count-brute", "render-index"],
)
def test_verify_loads_no_dataclasses(argv, module):
    # model objects are NamedTuples: no call imports dataclasses, or the
    # inspect module it pulls in
    loaded = loaded_modules(CLI_MAIN, *argv)
    assert f"aztec_triangles.{module}" in loaded
    assert not set(WATCHED) & loaded, loaded


def test_package_root_is_lazy_and_complete():
    assert loaded_modules("import sys, aztec_triangles") == set()
    assert len(aztec_triangles.__all__) == 52
    namespace = {}
    exec("from aztec_triangles import *", namespace)
    for name in aztec_triangles.__all__:
        assert namespace[name] is getattr(aztec_triangles, name)
        assert name in dir(aztec_triangles)
    with pytest.raises(AttributeError):
        aztec_triangles.double_factorial


# The paper's six bijections and its F(n): public although no module calls them
PAPER_NAMES = {
    "sequence_to_tableau", "tableau_to_sequence", "paths_to_tableau",
    "tableau_to_paths", "sequence_to_tiling", "tiling_to_sequence", "df_formula",
}


def test_public_names_are_run_by_the_package():
    # every other name in __all__ is loaded, read as an attribute or imported
    # by some module of the package, so none is a helper only tests call
    used = set()
    for path in (SRC / "aztec_triangles").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert PAPER_NAMES <= set(aztec_triangles.__all__)
    assert set(aztec_triangles.__all__) - PAPER_NAMES - used == set()


@pytest.mark.parametrize(
    "argv, layers",
    [
        (("count", "--mu", "2,1", "--case", "1"), {"delannoy.entry", "exact.det"}),
        (("verify", "--suite", "detprop", "--kmax", "2"),
         {"verify.detprop", "exact.det"}),
    ],
    ids=["count", "verify-detprop"],
)
def test_benchmark_trace_finds_its_layers(tmp_path, argv, layers):
    # perfbench/trace_child.py wraps package functions by name; a renamed or
    # removed one would leave its layer silently empty
    out = tmp_path / "spans.jsonl"
    child = subprocess.run(
        [sys.executable, str(SRC.parent / "perfbench" / "trace_child.py"),
         "time", str(out), "t", "--", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert child.returncode == 0, child.stderr
    names = {json.loads(line)[0] for line in out.read_text().splitlines()}
    assert layers <= names, names
