"""Byte-for-byte pins of the design files the CLI writes for fixed seeds.

The digests were recorded from the two-class composition code (separate
plain and split decompositions) before the two were merged, so these
tests show the merged code writes exactly the same files.
"""

import hashlib
import json

import pytest

from trisys.cli import main
from trisys.designs import BlockDesign, p_rank
from trisys.io import read_design

COMPOSE_DIGESTS = {
    (1, 7, 0, 0): (
        "v=21 blocks=70 rank3=19 resolution=none",
        "8f5bd6f7d8f1e53a63b334b061e1657ca0433b906135347aded7f74f7270dc7d",
    ),
    (2, 7, 0, 3): (
        "v=63 blocks=651 rank3=60 resolution=none",
        "4fb96244f90396187a9b23af71f13305d9e8c8973b905017a47f498e08781058",
    ),
    (3, 7, 0, 1): (
        "v=189 blocks=5922 rank3=185 resolution=none",
        "f921117a298e219ece2e328d17dddb1a534edfbdc2024fee615a57be34aca02e",
    ),
    (2, 3, 1, 2): (
        "v=27 blocks=117 rank3=24 resolution=none",
        "d2a7080301e9c9cb9e5c818207a380e540074e61841e1dbfcfb50c70f4d22550",
    ),
    (3, 7, 2, 5): (
        "v=189 blocks=5922 rank3=185 resolution=none",
        "0fcb704f2fd92a14940e4a5df90e1608b1fa090bd8c1623842fc274d7bc6c2d0",
    ),
    (2, 9, 2, 1): (
        "v=81 blocks=1080 rank3=78 resolution=none",
        "b9aa401f5ad4320f8b897b518a0ec45686637c53c210eb40e76e51abdb29eac2",
    ),
    # Recorded while the summary rank came from p_rank of the whole system.
    (2, 7, 1, 1): (
        "v=63 blocks=651 rank3=60 resolution=none",
        "54430fae070f51e4de456a66574299a46b03ae75a71249e16eb750229fc66fad",
    ),
    (3, 7, 2, 1): (
        "v=189 blocks=5922 rank3=185 resolution=none",
        "1238b2e30da8754a7af4835e125a6307addbbf5f97c2a38c89d9fc503a2dfbc4",
    ),
    (2, 9, 0, 1): (
        "v=81 blocks=1080 rank3=78 resolution=none",
        "b9aa401f5ad4320f8b897b518a0ec45686637c53c210eb40e76e51abdb29eac2",
    ),
    (2, 13, 0, 1): (
        "v=117 blocks=2262 rank3=114 resolution=none",
        "fec080cf0c7ed4a2d5c2527976ae7edfb6eb3e5e5334605ff124e6900b2fb805",
    ),
}

FORCED_DIGEST = "3a29c8b548c897e81ccfe7ebc3fc2033106673acac5f1e95d532eaf5f4fb66f6"

# force-rank output of the plain (t = 0) compose file for (k, T, seed),
# recorded while force_exact_rank still recomputed the result's dual space
# by a second dense elimination.
FORCED_DIGESTS = {
    (3, 7, 1): (
        "v=189 blocks=5922 rank3=185 resolution=none",
        "9e8dd86962ebe62065ede9bf915c42163ec6c4d5a6fdaa0b45f13af4ed5f0fb6",
    ),
    (2, 13, 5): (
        "v=117 blocks=2262 rank3=114 resolution=none",
        "6fa8e2841c829ff73fa55c73c81292c6ca1a4b57384508ab6e4e3b820fa79768",
    ),
    (1, 13, 3): (
        "v=39 blocks=247 rank3=37 resolution=none",
        "943edcdbee65e05c5fd080199aa605d727f7ff2fe1f3cf61ef68fa7367a6e7a4",
    ),
    (2, 9, 1): (
        "v=81 blocks=1080 rank3=78 resolution=none",
        "2346e5fae66ef97e9ec047a9f4bab7589fed445f290ce57d17c0a2b057ac2eda",
    ),
    (1, 19, 2): (
        "v=57 blocks=532 rank3=55 resolution=none",
        "26c82a137bd98a62e94ad489313a05c5fa671486b2e99661a64cabeeaa65ca14",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compose_file(tmp_path, capsys, k, T, t, seed):
    out = tmp_path / f"c-{k}-{T}-{t}-{seed}"
    argv = ["construct", "compose", "--k", str(k), "--T", str(T), "--t", str(t),
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == 0
    return tmp_path / f"{out.name}.sts.jsonl", capsys.readouterr().out.strip()


@pytest.mark.parametrize("case", sorted(COMPOSE_DIGESTS))
def test_construct_compose_golden(tmp_path, capsys, case):
    path, summary = compose_file(tmp_path, capsys, *case)
    want_summary, want_digest = COMPOSE_DIGESTS[case]
    assert summary == want_summary
    assert sha256(path) == want_digest


def test_force_rank_golden(tmp_path, capsys):
    path, _ = compose_file(tmp_path, capsys, 2, 7, 0, 3)
    forced = tmp_path / "forced"
    assert main(["construct", "force-rank", "--in", str(path), "--out", str(forced)]) == 0
    assert capsys.readouterr().out.strip() == "v=63 blocks=651 rank3=60 resolution=none"
    assert sha256(tmp_path / "forced.sts.jsonl") == FORCED_DIGEST


@pytest.mark.parametrize("case", sorted(FORCED_DIGESTS))
def test_force_rank_golden_inputs(tmp_path, capsys, case):
    k, T, seed = case
    path, _ = compose_file(tmp_path, capsys, k, T, 0, seed)
    forced = tmp_path / "forced"
    assert main(["construct", "force-rank", "--in", str(path), "--out", str(forced)]) == 0
    want_summary, want_digest = FORCED_DIGESTS[case]
    assert capsys.readouterr().out.strip() == want_summary
    assert sha256(tmp_path / "forced.sts.jsonl") == want_digest


def test_force_rank_prints_rank_of_written_file(tmp_path, capsys):
    # The printed rank is not recomputed by the CLI; it must still be the
    # 3-rank of the file written.
    path, _ = compose_file(tmp_path, capsys, 2, 7, 0, 3)
    forced = tmp_path / "forced"
    assert main(["construct", "force-rank", "--in", str(path), "--out", str(forced)]) == 0
    printed = int(capsys.readouterr().out.split("rank3=")[1].split()[0])
    rec = read_design(str(tmp_path / "forced.sts.jsonl"))
    assert printed == p_rank(BlockDesign(rec.v, rec.blocks), 3)


# `verify --orthogonal-to V,K --rank P` report lines, recorded while every
# rank came from a dense elimination of the whole incidence matrix.
VERIFY_LINES = {
    ("forced-189", 3): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-3","ok":true,"value":185}]}',
    ("forced-189", 2): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-2","ok":true,"value":189}]}',
    ("forced-189", 5): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-5","ok":true,"value":189}]}',
    # Recorded while every rank came from the whole system's verified sample.
    ("forced-189", 7): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-7","ok":true,"value":189}]}',
    ("compose-63", 2): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-2","ok":true,"value":63}]}',
    ("compose-63", 3): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-3","ok":true,"value":60}]}',
    ("compose-63", 5): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-5","ok":true,"value":63}]}',
    ("ag-27", 3): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-3","ok":true,"value":23}]}',
    ("ag-27", 2): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-2","ok":true,"value":27}]}',
    ("ag-27", 5): '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
    '{"check":"orthogonal","ok":true},{"check":"rank-5","ok":true,"value":27}]}',
}


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    """The force-rank file of (k, T, seed) = (3, 7, 1), the compose file of
    (k, T, t, seed) = (2, 7, 1, 1) and the AG(3) file, each with the V,K its
    `--orthogonal-to` names."""
    d = tmp_path_factory.mktemp("verify")
    assert main(["construct", "compose", "--k", "3", "--T", "7", "--seed", "1",
                 "--out", str(d / "c")]) == 0
    assert main(["construct", "compose", "--k", "2", "--T", "7", "--t", "1", "--seed", "1",
                 "--out", str(d / "c63")]) == 0
    assert main(["construct", "force-rank", "--in", str(d / "c.sts.jsonl"),
                 "--out", str(d / "forced")]) == 0
    assert main(["construct", "ag", "--k", "3", "--out", str(d / "ag3")]) == 0
    return {"forced-189": (d / "forced.sts.jsonl", "189,3"),
            "compose-63": (d / "c63.sts.jsonl", "63,2"),
            "ag-27": (d / "ag3.sts.jsonl", "27,3")}


@pytest.mark.parametrize("case", sorted(VERIFY_LINES))
def test_verify_rank_report_golden(verify_inputs, capsys, case):
    name, p = case
    path, vk = verify_inputs[name]
    capsys.readouterr()
    assert main(["verify", str(path), "--orthogonal-to", vk, "--rank", str(p)]) == 0
    assert capsys.readouterr().out.strip() == VERIFY_LINES[case]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", ["ag-27", "compose-63", "forced-189"])
def test_verify_rank_without_layout_check_golden(verify_inputs, capsys, name, p):
    # With no --orthogonal-to, the report is the same but for that check.
    path, _ = verify_inputs[name]
    capsys.readouterr()
    assert main(["verify", str(path), "--rank", str(p)]) == 0
    want = [c for c in json.loads(VERIFY_LINES[name, p])["checks"] if c["check"] != "orthogonal"]
    assert json.loads(capsys.readouterr().out) == {"ok": True, "checks": want}


# `construct ag --k K` summary lines: 3-rank 3^k - k - 1.
AG_SUMMARIES = {
    4: "v=81 blocks=1080 rank3=76 resolution=attached",
    5: "v=243 blocks=9801 rank3=237 resolution=attached",
    6: "v=729 blocks=88452 rank3=722 resolution=attached",
}


@pytest.mark.parametrize("k", sorted(AG_SUMMARIES))
def test_construct_ag_summary_golden(tmp_path, capsys, k):
    assert main(["construct", "ag", "--k", str(k), "--out", str(tmp_path / "ag")]) == 0
    assert capsys.readouterr() == (AG_SUMMARIES[k] + "\n", "")


# `construct sts --T T` summary lines and files, recorded while the stock
# Skolem (T = 7, 13) and Bose (T = 9, 15) systems were built block by
# block as sorted tuples.
STS_DIGESTS = {
    7: ("v=7 blocks=7 rank3=6 resolution=none",
        "d802bf8ceefb1c476b186f1a6131d98b5ef7c1c868ee6604c3ad273a896805d6"),
    9: ("v=9 blocks=12 rank3=6 resolution=none",
        "e353d4c60f86325544121522b943c2370fee8a4d307d9e18a384506c523b6f68"),
    13: ("v=13 blocks=26 rank3=12 resolution=none",
         "89a7b05afab3808c1ed39de811fbb21660ca0b03a94e22915668b3a311d73a23"),
    15: ("v=15 blocks=35 rank3=14 resolution=none",
         "0b380b55aa6523bebb14809e8e28855d9db61f615beb4478c516096f1269432d"),
}


@pytest.mark.parametrize("T", sorted(STS_DIGESTS))
def test_construct_sts_golden(tmp_path, capsys, T):
    out = tmp_path / f"s{T}"
    assert main(["construct", "sts", "--T", str(T), "--out", str(out)]) == 0
    assert capsys.readouterr() == (STS_DIGESTS[T][0] + "\n", "")
    assert sha256(tmp_path / f"s{T}.sts.jsonl") == STS_DIGESTS[T][1]


def test_construct_sts_rejects_inadmissible_order(tmp_path, capsys):
    assert main(["construct", "sts", "--T", "5", "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr() == ("", "error: --T must be 1 or 3 (mod 6)\n")
    assert not list(tmp_path.iterdir())
