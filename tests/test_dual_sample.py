"""Ranks and dual spaces from a verified row sample, against the dense oracle.

`dual_space` and `p_rank` never eliminate the whole incidence matrix; the
dense `null_space(incidence_matrix(d))` and `rank(incidence_matrix(d), p)`
serve here as the oracle they must match exactly.  When 3 | v they work
inside the duals of the blocks within each third of the points; a
test-local copy of the verified-sample loop in all v unknowns, with no such
span, is the oracle they must match on composed systems and on any design.
"""

import functools
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trisys import cli, designs, gf3
from trisys.cli import main
from trisys.composition import compose, embedded_parts, random_decomposition
from trisys.constructions import affine_geometry
from trisys.designs import BlockDesign, dual_space, incidence_matrix, p_rank
from trisys.rankfix import force_exact_rank

PRIMES = (2, 3, 5, 7)
AG4 = affine_geometry(4).sts.design
COMPOSED_63 = compose(random_decomposition(2, 7, random.Random(3))).design


def assert_matches_dense(d: BlockDesign, p: int) -> None:
    m = incidence_matrix(d)
    assert p_rank(d, p) == (gf3.rank(m, p) if len(m) else 0)
    if p == 3:
        want = gf3.null_space(m) if len(m) else gf3.row_space(np.eye(d.v, dtype=np.int64))
        assert dual_space(d) == want


@st.composite
def triple_sets(draw):
    v = draw(st.integers(3, 24))
    triples = st.frozensets(st.integers(0, v - 1), min_size=3, max_size=3)
    return BlockDesign(v, tuple(tuple(b) for b in draw(st.sets(triples, max_size=90))))


@st.composite
def sub_designs(draw):
    """A random subset or a sorted prefix of the blocks of AG(4) or of a
    composed v = 63 system."""
    whole = draw(st.sampled_from([AG4, COMPOSED_63]))
    a = whole.array
    if draw(st.booleans()):
        keep = a[: draw(st.integers(0, len(a)))]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        keep = a[rng.random(len(a)) < draw(st.sampled_from([0.02, 0.1, 0.5, 0.9, 1.0]))]
    return BlockDesign(whole.v, keep)


SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(triple_sets(), st.sampled_from(PRIMES))
def test_random_triple_sets_match_dense(d, p):
    assert_matches_dense(d, p)


@SETTINGS
@given(sub_designs(), st.sampled_from(PRIMES))
def test_sub_designs_match_dense(d, p):
    assert_matches_dense(d, p)


@pytest.mark.parametrize("v", [0, 1, 5])
@pytest.mark.parametrize("p", PRIMES)
def test_empty_design(v, p):
    d = BlockDesign(v, ())
    assert p_rank(d, p) == 0
    assert dual_space(d).dim == v


@pytest.mark.parametrize("p", [0, 1, 4, 9, 257])
def test_p_rank_rejects_non_primes_for_empty_designs_too(p):
    for d in (BlockDesign(5, ()), BlockDesign(3, ((0, 1, 2),))):
        with pytest.raises(ValueError, match="must be a prime"):
            p_rank(d, p)


@pytest.mark.parametrize("chunk", [1, 4, 7])
def test_gather_in_chunks_matches_dense(monkeypatch, chunk):
    # The gather checks blocks a few at a time: designs of many chunks, one
    # with fewer blocks than a chunk, and the 27 disjoint blocks on 81
    # points, whose last block alone fails the dual of the others.
    monkeypatch.setattr(gf3, "_GATHER_CHUNK", chunk)
    disjoint = BlockDesign(81, np.arange(81).reshape(27, 3))
    for d in (AG4, COMPOSED_63, disjoint, BlockDesign(81, AG4.array[-3:]), BlockDesign(9, ())):
        for p in PRIMES:
            assert_matches_dense(d, p)
        m = incidence_matrix(d)
        for code in (dual_space(BlockDesign(d.v, d.array[:-1])),
                     gf3.row_space(gf3.generator_gvk(d.v, 1))):
            assert gf3.is_orthogonal(d, code) == (not (m @ code.basis.T % 3).any())
    assert not gf3.is_orthogonal(disjoint, dual_space(BlockDesign(81, disjoint.array[:-1])))


def record_rref(monkeypatch) -> list:
    """Monkeypatch gf3.rref to record each input matrix; returns the list."""
    seen = []
    rref = gf3.rref

    def recording(m, p=3):
        seen.append(np.array(m))
        return rref(m, p)

    monkeypatch.setattr(gf3, "rref", recording)
    return seen


def test_grow_branch(monkeypatch):
    # All 20 triples of {0..5}, then (4, 5, 6), the only block on point 6:
    # sorted last, the stride sample of 2v = 14 of the 21 blocks misses it.
    d = BlockDesign(7, list(combinations(range(6), 3)) + [(4, 5, 6)])
    seen = record_rref(monkeypatch)
    dual = dual_space(d)
    first_sample = seen[0]
    assert first_sample.shape == (14, 7)
    assert gf3.null_space(first_sample).dim > dual.dim
    assert len(seen) > 2  # the first sample, at least one regrowth, from_rows
    monkeypatch.undo()
    assert dual == gf3.null_space(incidence_matrix(d))
    assert dual == gf3.row_space(np.ones((1, 7), dtype=np.int64))
    for p in PRIMES:
        assert_matches_dense(d, p)


def test_no_elimination_sees_more_than_3v_rows_at_v189(monkeypatch):
    dec = random_decomposition(3, 7, random.Random(1))
    s = compose(dec)
    v = s.v
    seen = record_rref(monkeypatch)
    assert dual_space(s.design).dim == 4
    assert [p_rank(s.design, p) for p in PRIMES] == [189, 185, 189, 189]
    forced = force_exact_rank(s, 3)
    assert p_rank(forced.design, 3) == v - 4
    assert seen
    assert max(len(m) for m in seen) <= 3 * v


def test_verify_rank_non_prime_exits_2(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(q for q in (src, env.get("PYTHONPATH")) if q)
    design = tmp_path / "fano.sts.jsonl"
    design.write_text(
        json.dumps({"format_version": "1", "kind": "sts", "v": 7}) + "\n"
        + "".join(json.dumps(b) + "\n" for b in
                  ([0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6], [0, 4, 5], [1, 5, 6], [0, 2, 6])),
        encoding="utf-8",
    )

    def verify(p):
        return subprocess.run(
            [sys.executable, "-m", "trisys.cli", "verify", str(design), "--rank", str(p)],
            env=env, capture_output=True, text=True, timeout=60,
        )

    for p in (0, 1, 4, -3):
        proc = verify(p)
        assert proc.returncode == 2, p
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
    ok = verify(3)
    assert ok.returncode == 0
    # The Fano incidence matrix has determinant 24, so its 3-rank is 6.
    assert json.loads(ok.stdout)["checks"][-1] == {"check": "rank-3", "ok": True, "value": 6}


@functools.cache
def composed(k: int, T: int, t: int, seed: int):
    """A seeded decomposition, its composed system, and its B- (every block
    but the first sub-system's)."""
    dec = random_decomposition(k, T, random.Random(seed), t)
    b_minus = BlockDesign(dec.v, embedded_parts(dec)[len(dec.sub_systems[0].array):])
    return dec, compose(dec).design, b_minus


@st.composite
def composed_cases(draw):
    k = draw(st.integers(1, 3))
    t = draw(st.integers(0, min(k, 2)))
    return composed(k, draw(st.sampled_from([7, 9, 13])), t, draw(st.integers(0, 2)))


def plain_null_basis(d: BlockDesign, p: int) -> np.ndarray:
    """The verified-sample loop in all v unknowns: sample min(b, 2v) blocks,
    take the null space, check every block, regrow by the failing ones."""
    a, v = d.array, d.v

    def rows(blocks):
        return incidence_matrix(BlockDesign(v, blocks))

    m = rows(a if len(a) <= 2 * v else a[np.arange(2 * v) * len(a) // (2 * v)])
    while True:
        r, pivots = gf3.rref(m, p)
        basis = gf3.null_basis(r, pivots, p)
        failing = np.flatnonzero((basis[:, a].sum(axis=2) % p).any(axis=0))
        if not failing.size:
            return basis
        m = np.vstack([r[: len(pivots)], rows(a[failing[: len(basis)]])])


def assert_matches_plain_route(d: BlockDesign, p: int) -> None:
    plain = plain_null_basis(d, p)
    assert p_rank(d, p) == d.v - len(plain)
    if p == 3:
        assert dual_space(d) == gf3.Subspace.from_rows(plain, d.v)


SPAN_SETTINGS = settings(max_examples=50, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@SPAN_SETTINGS
@given(composed_cases(), st.sampled_from(PRIMES))
def test_span_route_matches_plain_route(case, p):
    _, d, _ = case
    assert_matches_plain_route(d, p)


@SPAN_SETTINGS
@given(composed_cases(), st.sampled_from(PRIMES))
def test_span_route_with_first_group_free_matches_on_b_minus(case, p):
    _, _, b_minus = case
    assert_matches_plain_route(b_minus, p)


@SETTINGS
@given(st.one_of(triple_sets(), sub_designs()), st.sampled_from(PRIMES))
def test_span_route_matches_plain_route_on_any_design(d, p):
    # W contains the dual of any design, not only of a composed system.
    assert_matches_plain_route(d, p)


def test_verify_rank_eliminates_per_group_then_once(tmp_path, monkeypatch, capsys):
    # verify --rank recurses over thirds: a node of v points whose thirds
    # hold at least v/2 of its blocks runs on each third's blocks first,
    # then eliminates in the N unknowns of their stacked duals when
    # 2N <= v; any other node eliminates in its v unknowns.  The route is
    # the same with or without --orthogonal-to, and verify neither
    # decomposes nor re-checks the design.
    assert main(["construct", "ag", "--k", "3", "--out", str(tmp_path / "ag")]) == 0
    assert main(["construct", "compose", "--k", "2", "--T", "7", "--seed", "1",
                 "--out", str(tmp_path / "c")]) == 0
    seen = []
    verified_null_basis, rref = designs._verified_null_basis, gf3.rref

    def node(a, v, p):
        seen.append(v)
        return verified_null_basis(a, v, p)

    def eliminate(m, p=3):
        if seen:  # inside the rank, not the layout check before it
            seen.append(("rref", np.shape(m)[1]))
        return rref(m, p)

    monkeypatch.setattr(designs, "_verified_null_basis", node)
    monkeypatch.setattr(gf3, "rref", eliminate)
    assert not hasattr(cli, "decompose")
    monkeypatch.setattr(designs.StsInstance, "__post_init__", None)
    # AG(2)'s thirds hold 3 < 9/2 of its blocks, so it eliminates in its 9
    # unknowns; it has dual dimension 3, so N = 9 on 27 points.
    ag2 = [9, ("rref", 9)]
    # STS(7) has dual dimension 1: N = 3 on 21 points; each composed
    # 21-point third has dual dimension 2: N = 6 on 63.
    c21 = [21, *[7, ("rref", 7)] * 3, ("rref", 3)]
    for name, target, want in (("ag", "27,3", [27, *ag2 * 3, ("rref", 9)]),
                               ("c", "63,2", [63, *c21 * 3, ("rref", 6)])):
        for layout in ([], ["--orthogonal-to", target]):
            seen.clear()
            assert main(["verify", f"{tmp_path / name}.sts.jsonl", *layout, "--rank", "3"]) == 0
            assert seen == want
    capsys.readouterr()


@pytest.mark.parametrize("blocks", [[(0, 1, 2)], list(combinations(range(20), 3))])
def test_sparse_design_keeps_the_plain_route(monkeypatch, blocks):
    # On 1,503 points, one block, or all 1,140 triples of 20 points (enough
    # for the recursion to run): the thirds' duals span N >= 1,484 points,
    # and mapping an N-row basis back through W would cost about v^3; with
    # 2N > v the last elimination runs in all v unknowns.
    d = BlockDesign(1503, blocks)
    want = d.v - len(plain_null_basis(d, 3))
    seen = record_rref(monkeypatch)
    assert p_rank(d, 3) == want == (1 if len(blocks) == 1 else 19)
    assert seen[-1].shape[1] == 1503


def test_no_v_by_v_elimination_on_composed_input_at_v189(tmp_path, monkeypatch, capsys):
    # The compose summary, force-rank and verify --orthogonal-to --rank 3
    # each rank a v = 189 system inside its sub-systems' dual span.
    v, c, f = 189, tmp_path / "c", tmp_path / "f"
    seen = record_rref(monkeypatch)
    for argv in (["construct", "compose", "--k", "3", "--T", "7", "--seed", "1", "--out", str(c)],
                 ["construct", "force-rank", "--in", f"{c}.sts.jsonl", "--out", str(f)],
                 ["verify", f"{f}.sts.jsonl", "--orthogonal-to", f"{v},3", "--rank", "3"]):
        start = len(seen)
        assert main(argv) == 0
        assert len(seen) > start
    assert capsys.readouterr().out.count("185") == 3
    assert not [m.shape for m in seen if m.shape[0] >= v and m.shape[1] >= v]
