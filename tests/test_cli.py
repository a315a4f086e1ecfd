"""End-to-end command-line checks, run in-process against main()."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from trisys import cli
from trisys.cli import main
from trisys.composition import compose, random_decomposition
from trisys.io import sts_record, write_design


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_ag_and_verify(tmp_path, capsys):
    out = str(tmp_path / "ag2")
    code, stdout, _ = run(capsys, "construct", "ag", "--k", "2", "--out", out)
    assert code == 0
    assert stdout.strip() == "v=9 blocks=12 rank3=6 resolution=attached"
    code, stdout, _ = run(
        capsys, "verify", f"{out}.sts.jsonl",
        "--resolution", f"{out}.resolution.jsonl",
        "--orthogonal-to", "9,2", "--rank", "3",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["ok"]
    ranks = [c for c in report["checks"] if c["check"] == "rank-3"]
    assert ranks and ranks[0]["value"] == 6


def test_construct_ag_k0_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "ag", "--k", "0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "error" in err


def test_construct_compose_k1_t7(tmp_path, capsys):
    out = str(tmp_path / "c")
    code, stdout, _ = run(
        capsys, "construct", "compose", "--k", "1", "--T", "7", "--out", out
    )
    assert code == 0
    assert "v=21 blocks=70 rank3=19" in stdout
    code, stdout, _ = run(
        capsys, "verify", f"{out}.sts.jsonl", "--orthogonal-to", "21,1"
    )
    assert code == 0


def test_construct_compose_split(tmp_path, capsys):
    out = str(tmp_path / "s")
    code, stdout, _ = run(
        capsys, "construct", "compose", "--k", "2", "--T", "3", "--t", "1", "--out", out
    )
    assert code == 0
    assert "v=27" in stdout
    code, _, _ = run(capsys, "verify", f"{out}.sts.jsonl", "--orthogonal-to", "27,2")
    assert code == 0


def test_force_rank_pipeline(tmp_path, capsys):
    out = str(tmp_path / "d")
    code, _, _ = run(
        capsys, "construct", "compose", "--k", "1", "--T", "9", "--seed", "3", "--out", out
    )
    assert code == 0
    forced = str(tmp_path / "f")
    code, stdout, _ = run(
        capsys, "construct", "force-rank", "--in", f"{out}.sts.jsonl", "--out", forced
    )
    assert code == 0
    assert "rank3=25" in stdout
    code, _, _ = run(capsys, "verify", f"{forced}.sts.jsonl", "--orthogonal-to", "27,1")
    assert code == 0


def test_resolve_pipeline(tmp_path, capsys):
    out = str(tmp_path / "nine")
    code, _, _ = run(
        capsys, "construct", "compose", "--k", "1", "--T", "3", "--out", out
    )
    assert code == 0
    res = str(tmp_path / "res")
    code, stdout, _ = run(
        capsys, "construct", "resolve", "--in", f"{out}.sts.jsonl", "--out", res
    )
    assert code == 0
    assert "resolution=attached" in stdout
    code, _, _ = run(
        capsys, "verify", f"{out}.sts.jsonl", "--resolution", f"{res}.resolution.jsonl"
    )
    assert code == 0


def test_resolve_budget_failure_exits_3(tmp_path, capsys):
    out = str(tmp_path / "b")
    run(capsys, "construct", "compose", "--k", "1", "--T", "3", "--out", out)
    code, _, err = run(
        capsys, "construct", "resolve", "--in", f"{out}.sts.jsonl",
        "--out", str(tmp_path / "r"), "--node-budget", "1",
    )
    assert code == 3
    assert "budget" in err
    # Pass A stops at its second node try, before it finds a class.
    assert err == "resolution search failed: budget exceeded after 2 nodes, 0 parallel classes\n"


def test_resolve_absence_exits_3(tmp_path, capsys):
    # This order-21 system has 212 parallel classes and no resolution.
    out = str(tmp_path / "a")
    run(capsys, "construct", "compose", "--k", "1", "--T", "7", "--seed", "0", "--out", out)
    code, _, err = run(
        capsys, "construct", "resolve", "--in", f"{out}.sts.jsonl", "--out", str(tmp_path / "r")
    )
    assert code == 3
    assert err == (
        "resolution search failed: no resolution exists after 1819 nodes, 212 parallel classes\n"
    )


@pytest.mark.parametrize("option, value, message", [
    ("--node-budget", "-5", "node_budget must be >= 0, got -5"),
    ("--max-classes", "-1", "max_classes must be >= 0, got -1"),
])
def test_resolve_negative_limit_exits_2(tmp_path, capsys, option, value, message):
    out = str(tmp_path / "n")
    run(capsys, "construct", "compose", "--k", "1", "--T", "3", "--out", out)
    code, stdout, err = run(
        capsys, "construct", "resolve", "--in", f"{out}.sts.jsonl",
        "--out", str(tmp_path / "r"), option, value,
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "r.resolution.jsonl").exists()


def test_resolve_zero_budget_is_a_search_failure(tmp_path, capsys):
    out = str(tmp_path / "z")
    run(capsys, "construct", "compose", "--k", "1", "--T", "3", "--out", out)
    code, _, err = run(
        capsys, "construct", "resolve", "--in", f"{out}.sts.jsonl",
        "--out", str(tmp_path / "r"), "--node-budget", "0",
    )
    assert code == 3
    assert err == "resolution search failed: budget exceeded after 1 nodes, 0 parallel classes\n"


def test_verify_duplicate_block_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"format_version":"1","kind":"sts","v":3}\n[0,1,2]\n[0,1,2]\n',
        encoding="utf-8",
    )
    code, stdout, _ = run(capsys, "verify", str(bad))
    assert code == 1
    report = json.loads(stdout)
    assert not report["ok"]
    assert "duplicate" in report["checks"][0]["detail"]


def test_verify_broken_sts_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"format_version":"1","kind":"sts","v":4}\n[0,1,2]\n[0,1,3]\n',
        encoding="utf-8",
    )
    code, stdout, _ = run(capsys, "verify", str(bad))
    assert code == 1
    report = json.loads(stdout)
    assert not report["ok"]


MALFORMED = {
    "header-without-v": '{"format_version":"1","kind":"sts"}\n[0,1,2]\n',
    "non-integer-v": '{"format_version":"1","kind":"sts","v":"x"}\n[0,1,2]\n',
    "scalar-block": '{"format_version":"1","kind":"sts","v":3}\n5\n',
    "scalar-groups": '{"format_version":"1","kind":"td","v":3}\n{"groups":5}\n[0,1,2]\n',
    "scalar-class-block": '{"format_version":"1","kind":"resolution","v":3}\n[5]\n',
    "deep-header": "[" * 100_000 + "]" * 100_000 + "\n[0,1,2]\n",
    "deep-second-line": '{"format_version":"1","kind":"sts","v":3}\n'
    + "[" * 100_000 + "]" * 100_000 + "\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_exits_2_without_traceback(tmp_path, name):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(MALFORMED[name], encoding="utf-8")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "trisys.cli", "verify", str(bad)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_out_of_memory_exits_2_without_traceback(tmp_path):
    # One block on 200,000 points: the pair check asks for a 37 GiB mask.
    # The address-space limit is set in the child only.
    resource = pytest.importorskip("resource")
    big = tmp_path / "big.sts.jsonl"
    big.write_text('{"format_version":"1","kind":"sts","v":200000}\n[0,1,2]\n', encoding="utf-8")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    limit = 1536 * 2**20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "trisys.cli", "verify", str(big)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


NOT_INTEGERS = {
    "float-v": ('{"format_version":"1","kind":"sts","v":3.7}\n[0,1,2]\n', 1),
    "bool-v": ('{"format_version":"1","kind":"sts","v":true}\n', 1),
    "string-k": ('{"format_version":"1","kind":"decomposition","v":9,"k":"1"}\n', 1),
    "float-T": ('{"format_version":"1","kind":"td","v":3,"T":1.0}\n', 1),
    "float-and-string-points": ('{"format_version":"1","kind":"sts","v":3}\n[0.9,1.2,"2"]\n', 2),
    "bool-point": ('{"format_version":"1","kind":"sts","v":3}\n[false,true,2]\n', 2),
    "string-block": ('{"format_version":"1","kind":"sts","v":3}\n"012"\n', 2),
    "float-group-point": (
        '{"format_version":"1","kind":"td","v":3,"T":1}\n{"groups":[[0],[1.0],[2]]}\n', 2
    ),
    "string-class-point": (
        '{"format_version":"1","kind":"resolution","v":3}\n[[0,1,"2"]]\n', 2
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_INTEGERS))
def test_design_file_numbers_must_be_json_integers(tmp_path, capsys, name):
    text, record = NOT_INTEGERS[name]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text, encoding="utf-8")
    code, stdout, err = run(capsys, "verify", str(bad))
    line = text.splitlines()[record - 1]
    assert (code, stdout, err) == (2, "", f"error: malformed record {record}: {line}\n")


def test_construct_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs about 17 ms and 1.7 MB to import; nothing on the
    # compose and force-rank paths needs it.
    script = (
        "import sys; from trisys.cli import main\n"
        "seen = []\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split()) == 0\n"
        "    seen.append('numpy.ma' in sys.modules)\n"
        "print(seen)\n"
    )
    out = tmp_path / "c"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script,
         f"construct compose --k 2 --T 7 --out {out}",
         f"construct force-rank --in {out}.sts.jsonl --out {tmp_path / 'forced'}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, False]"


def test_verify_resolution_with_unknown_block(tmp_path, capsys):
    out = str(tmp_path / "ag2")
    run(capsys, "construct", "ag", "--k", "2", "--out", out)
    bad = tmp_path / "bad.resolution.jsonl"
    bad.write_text(
        '{"format_version":"1","kind":"resolution","v":9}\n'
        "[[0,1,2],[3,4,5],[6,7,8]]\n[[0,1,3],[2,4,8]]\n",
        encoding="utf-8",
    )
    code, stdout, _ = run(capsys, "verify", f"{out}.sts.jsonl", "--resolution", str(bad))
    assert code == 1
    assert json.loads(stdout) == {"ok": False, "checks": [
        {"check": "sts-axioms", "ok": True},
        {"check": "resolution", "ok": False,
         "detail": "resolution references unknown block (0, 1, 3)"},
    ]}


def test_missing_file_exits_4(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.jsonl"))
    assert code == 4


def test_bound_rcw(capsys):
    code, stdout, _ = run(capsys, "bound", "rcw", "--T", "7")
    assert code == 0
    assert "floor: 38102400" in stdout
    assert "hypothesis: ok" in stdout


def test_bound_thm2_digits(capsys):
    code, stdout, _ = run(
        capsys, "bound", "thm2", "--T", "7", "--k", "2",
        "--n1hat", "38102400", "--n3", "435456000",
    )
    assert code == 0
    digits = int(next(l for l in stdout.splitlines() if l.startswith("digits:")).split()[1])
    assert digits >= 65


def test_bound_thm1_zero(capsys):
    code, stdout, _ = run(
        capsys, "bound", "thm1", "--T", "15", "--k", "1", "--n1", "0", "--n3", "1"
    )
    assert code == 0
    assert "floor: 0" in stdout


def test_bound_thm1prime(capsys):
    code, stdout, err = run(
        capsys, "bound", "thm1prime", "--T", "7", "--k", "2",
        "--n1", "38102400", "--n3", "435456000",
    )
    assert (code, err) == (0, "")
    assert stdout == (
        "formula: thm1prime\nT: 7\nk: 2\nM: 9\nn1_resolvable: 38102400\n"
        "n3_resolvable: 435456000\n"
        "numerator: 206514239650158688465235083769223959856261363700991390536672031509"
        "10681867142164765607072547127944526722064449536000000000000000000000000000"
        "0000000000000000000000000\n"
        "denominator: 906480726958291284507230208000000000\n"
        "floor: 22781977984586621977507500541275514238157147548599894514706478542804713"
        "8177836562513920000000000000000000000000000000000000000000\n"
        "digits: 129\nhypothesis: ok\n"
    )


def test_bound_past_the_string_conversion_limit_prints_nothing(capsys):
    # The numerator has more than 4,300 digits, which str() refuses: the
    # command fails before any line of the report reaches stdout.
    code, stdout, err = run(
        capsys, "bound", "thm2", "--T", "7", "--k", "4",
        "--n1hat", "38102400", "--n3", "435456000",
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


def test_bound_thm2_requires_n1hat(capsys):
    code, _, err = run(capsys, "bound", "thm2", "--T", "7", "--k", "2")
    assert code == 2


def test_cli_deterministic_output(tmp_path, capsys):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    run(capsys, "construct", "compose", "--k", "1", "--T", "7", "--seed", "5", "--out", a)
    run(capsys, "construct", "compose", "--k", "1", "--T", "7", "--seed", "5", "--out", b)
    fa = (tmp_path / "a.sts.jsonl").read_bytes()
    fb = (tmp_path / "b.sts.jsonl").read_bytes()
    assert fa == fb


@pytest.fixture(scope="module")
def decomposition_567(tmp_path_factory):
    path = tmp_path_factory.mktemp("v567") / "dec.sts.jsonl"
    s = compose(random_decomposition(4, 7, random.Random(1)))
    write_design(str(path), sts_record(s, k=4, t=7, kind="decomposition"))
    return str(path)


class _Probed(Exception):
    pass


@pytest.mark.parametrize("argv, stage", [
    (("construct", "force-rank", "--in", "FILE"), "force_exact_rank"),
    (("construct", "resolve", "--in", "FILE"), "search_resolution"),
    (("verify", "FILE", "--rank", "3"), "p_rank"),
])
def test_file_record_is_dropped_once_the_design_is_built(
    decomposition_567, tmp_path, monkeypatch, argv, stage
):
    # The record read from a design file holds one tuple per block, about
    # five times the bytes of the design's block array; the command's main
    # work starts once only the design is left.
    live = {}

    def probe(d, *args):
        live["bytes"] = tracemalloc.get_traced_memory()[0]
        live["array"] = d.array.nbytes
        raise _Probed

    monkeypatch.setattr(cli, stage, probe)
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        with pytest.raises(_Probed):
            main([decomposition_567 if a == "FILE" else a for a in argv])
    finally:
        tracemalloc.stop()
    assert live["bytes"] < 2 * live["array"]
