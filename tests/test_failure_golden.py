"""Exact failure outputs: the exception type and text of every checked
constructor and certificate that rejects its input, the `trisys verify`
report line and exit code of each failed check, and the exit code and
message of a write that fails.

The expected values were recorded before the report rule (a failed
report raises its first violation) and the exit-code rule (OSError exits
4, ValueError exits 2) each got one owner, so these tests show that both
kept every type, text, byte and code.
"""

import json
import random
import re

import numpy as np
import pytest

from trisys import bounds, composition, constructions, gf3, rankfix, resolution
from trisys.cli import main
from trisys.composition import (
    Decomposition,
    compose,
    compose_resolution,
    random_decomposition,
    resolvable_sts,
)
from trisys.constructions import (
    affine_geometry,
    kts15,
    latin_with_mate,
    small_sts,
)
from trisys.designs import (
    BlockDesign,
    LatinSquare,
    Resolution,
    StsInstance,
    TdInstance,
    VerificationReport,
    are_orthogonal,
    canonical_td_groups,
    permute_design,
    permute_sts,
    resolve_td,
    td_from_latin,
    verify_resolution,
)
from trisys.io import DesignFileRecord, serialize, sts_record

# td_from_latin of the cyclic square of order 3: cell (r, c) -> {r, 3+c, 6+(r+c)%3}.
TD3 = tuple((r, 3 + c, 6 + (r + c) % 3) for r in range(3) for c in range(3))
# AG(2) with points 2 and 3 swapped: an STS, not orthogonal to G(9,1).
SWAPPED_AG2 = (
    (0, 1, 3), (0, 2, 6), (0, 4, 8), (0, 5, 7), (1, 2, 8), (1, 4, 7),
    (1, 5, 6), (2, 3, 7), (3, 4, 6), (3, 5, 8), (2, 4, 5), (6, 7, 8),
)


def order3_parts(**change):
    """Decomposition(k=1, T=3) of three order-3 systems, with `change`
    replacing any of its arguments."""
    args = {
        "k": 1, "T": 3, "sub_systems": (small_sts(3),) * 3,
        "tds": {(0, 1, 2): td_from_latin(latin_with_mate(3)[0])},
    }
    return lambda: Decomposition(**{**args, **change})


CONSTRUCTOR_CASES = {
    "sts-overcovered": (
        lambda: StsInstance(BlockDesign(4, ((0, 1, 2), (0, 1, 3)))),
        "not an STS: pair (0, 1) covered 2 times",
    ),
    "sts-undercovered": (
        lambda: StsInstance(BlockDesign(7, ((0, 1, 3),))),
        "not an STS: pair (0, 2) covered 0 times",
    ),
    "td-missing-block": (
        lambda: TdInstance(BlockDesign(9, TD3[:-1]), canonical_td_groups(3)),
        "not a TD: cross pair (2, 5) covered 0 times",
    ),
    "td-two-groups": (
        lambda: TdInstance(BlockDesign(9, TD3), canonical_td_groups(3)[:2]),
        "not a TD: expected 3 groups, got 2",
    ),
    "decomposition-split-above-k": (
        order3_parts(t=2), "need 0 <= t <= k and T >= 1, got k=1, t=2, T=3",
    ),
    "decomposition-sub-system-count": (
        order3_parts(sub_systems=(small_sts(3),) * 2), "expected 3 sub-systems, got 2",
    ),
    "decomposition-sub-system-order": (
        order3_parts(sub_systems=(small_sts(3), small_sts(3), small_sts(7))),
        "sub-system 2 has order 7, expected 3",
    ),
    "decomposition-sub-system-not-orthogonal": (
        order3_parts(t=1, sub_systems=(StsInstance(BlockDesign(9, SWAPPED_AG2)),), tds={}),
        "sub-system 0 is not orthogonal to its local G(9,1)",
    ),
    "decomposition-td-keys": (
        order3_parts(tds={}), "TD keys must be exactly the cross-group triples",
    ),
    # TD keys are the sorted cross triples as given; none is re-keyed.
    "decomposition-td-key-twice": (
        order3_parts(tds={(0, 1, 2): td_from_latin(latin_with_mate(3)[0]),
                          (2, 1, 0): td_from_latin(latin_with_mate(3)[1])}),
        "TD keys must be exactly the cross-group triples",
    ),
    "decomposition-td-key-unsorted": (
        order3_parts(tds={(2, 1, 0): td_from_latin(latin_with_mate(3)[0])}),
        "TD keys must be exactly the cross-group triples",
    ),
    "compose-resolution-td-key-twice": (
        lambda: order9_resolved(td_resolutions={(0, 1, 2): resolve_td(*latin_with_mate(3)),
                                                (1, 0, 2): resolve_td(*latin_with_mate(3))}),
        "need exactly one resolution per transversal design",
    ),
    "decomposition-td-order": (
        order3_parts(tds={(0, 1, 2): td_from_latin(latin_with_mate(7)[0])}),
        "triple (0, 1, 2): TD must have canonical groups of size 3",
    ),
    # A stack of squares is checked for its shape, then its symbols, rows and columns.
    "decomposition-stack-shape": (
        order3_parts(tds=np.zeros((1, 3, 2), dtype=int)),
        "TD stack must have shape (1, 3, 3), got (1, 3, 2)",
    ),
    "decomposition-stack-symbol-range": (
        order3_parts(tds=[[[0, 1, 2], [1, 2, 3], [2, 0, 1]]]),
        "triple (0, 1, 2): row 1 holds a symbol outside 0..2",
    ),
    "decomposition-stack-row-not-permutation": (
        order3_parts(tds=[[[0, 1, 2], [1, 1, 0], [2, 0, 1]]]),
        "triple (0, 1, 2): row 1 is not a permutation",
    ),
    "decomposition-stack-column-not-permutation": (
        order3_parts(tds=[[[0, 1, 2], [0, 1, 2], [1, 2, 0]]]),
        "triple (0, 1, 2): column 0 is not a permutation",
    ),
    "latin-row-count": (
        lambda: LatinSquare(3, ((0, 1, 2), (1, 2, 0))), "wrong number of rows",
    ),
    "latin-row-not-permutation": (
        lambda: LatinSquare(2, ((0, 0), (1, 1))), "row (0, 0) is not a permutation",
    ),
    "latin-column-not-permutation": (
        lambda: LatinSquare(2, ((0, 1), (0, 1))), "column 0 is not a permutation",
    ),
    "latin-short-row": (
        lambda: LatinSquare(2, ((0, 1), (1,))), "row (1,) is not a permutation",
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_CASES))
def test_checked_constructor_failure(name):
    build, text = CONSTRUCTOR_CASES[name]
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == text


def order9():
    """The order-9 composition over three order-3 systems, with resolutions
    of every ingredient."""
    main_sq, mate = latin_with_mate(3)
    dec = Decomposition(
        k=1, T=3, sub_systems=(small_sts(3),) * 3, tds={(0, 1, 2): td_from_latin(main_sq)}
    )
    parts = {
        "sub_resolutions": (Resolution(((0,),)),) * 3,
        "td_resolutions": {(0, 1, 2): resolve_td(main_sq, mate)},
        "outer_resolution": affine_geometry(1).standard_resolution,
    }
    return dec, parts


def order9_resolved(**change):
    """compose_resolution of order9() with `change` replacing any of its parts."""
    dec, parts = order9()
    return compose_resolution(dec, **{**parts, **change})


INGREDIENT_CASES = {
    "sub": (
        {"sub_resolutions": (Resolution(((0,),)), Resolution(()), Resolution(((0,),)))},
        "invalid sub-system resolution: 1 blocks not covered by any class",
    ),
    "td": (
        {"td_resolutions": {(0, 1, 2): Resolution(((0, 4, 8), (1, 5, 6)))}},
        "invalid TD resolution at (0, 1, 2): 3 blocks not covered by any class",
    ),
    "outer": (
        {"outer_resolution": Resolution(((0,), (0,)))},
        "invalid outer resolution: block index 0 in classes 0 and 1",
    ),
    "count": (
        {"sub_resolutions": (Resolution(((0,),)),) * 2},
        "one resolution per sub-system is required",
    ),
}


# The input checks of library functions: name -> (call, exception type, text).
INPUT_CASES = {
    "as-matrix-scalar": (lambda: gf3.as_matrix(5), ValueError, "expected a 2-D matrix, got ndim=0"),
    "as-matrix-3d": (
        lambda: gf3.as_matrix([[[1]]]), ValueError, "expected a 2-D matrix, got ndim=3",
    ),
    "generator-v0": (
        lambda: gf3.generator_gvk(0, 1), ValueError, "need v >= 1 and k >= 0, got v=0, k=1",
    ),
    "generator-negative-k": (
        lambda: gf3.generator_gvk(9, -1), ValueError, "need v >= 1 and k >= 0, got v=9, k=-1",
    ),
    # 3^k is never computed when it cannot divide v: these return at once.
    "generator-huge-k": (
        lambda: gf3.generator_gvk(21, 10**9),
        ValueError, "3^k must divide v, got v=21, k=1000000000",
    ),
    "decompose-huge-k": (
        lambda: composition.decompose(COMPOSED_21, 10**9),
        ValueError, "3^k must divide v, got v=21, k=1000000000",
    ),
    "subspace-row-length": (
        lambda: gf3.Subspace.from_rows([[1, 0, 0]], 4),
        ValueError, "row length does not match ambient dimension",
    ),
    "subspace-vector-length": (
        lambda: gf3.row_space([[1, 0, 0]]).contains([1, 0]),
        ValueError, "vector length does not match ambient dimension",
    ),
    "orthogonal-ambient": (
        lambda: gf3.is_orthogonal(affine_geometry(2).sts, gf3.row_space([[1, 1]])),
        ValueError, "ambient dimension 2 does not match v=9",
    ),
    "permutation-size-mismatch": (
        lambda: rankfix.PointPermutation.identity(3).after(rankfix.PointPermutation.identity(4)),
        ValueError, "size mismatch",
    ),
    "mix-matrix-t1": (lambda: rankfix.mix_matrix(1), ValueError, "defined for t >= 2"),
    "trivial-dual-structure": (
        lambda: rankfix.verify_dual_structure(BlockDesign(0, ())),
        rankfix.StructureViolation, "dual space is trivial",
    ),
    "permute-design-not-bijective": (
        lambda: permute_design(affine_geometry(2).sts.design, [0, 0, 1, 2, 3, 4, 5, 6, 7]),
        ValueError, "image is not a permutation of the points",
    ),
    "agl-order-negative": (lambda: bounds.agl_order(-1), ValueError, "k must be >= 0"),
    "gl2-order-negative": (lambda: bounds.gl2_order(-1), ValueError, "m must be >= 0"),
    # Rank forcing rests on its input's STS check.
    "force-rank-needs-sts": (
        lambda: rankfix.force_exact_rank(COMPOSED_21.design, 1),
        TypeError, "force_exact_rank needs an StsInstance, got BlockDesign",
    ),
    "serialize-unknown-kind": (
        lambda: serialize(DesignFileRecord("blocks", 3)), ValueError, "unknown kind 'blocks'",
    ),
}


@pytest.mark.parametrize("name", sorted(INPUT_CASES))
def test_input_check_failure(name):
    call, exc_type, text = INPUT_CASES[name]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == text


# Degenerate inputs answered with a sentinel, not an error: name -> (call, result).
SENTINEL_CASES = {
    "latin-orders-differ": (
        lambda: are_orthogonal(latin_with_mate(3)[0], LatinSquare(1, ((0,),))), False,
    ),
    "as-matrix-vector-is-one-row": (lambda: gf3.as_matrix([1, 2, 4]).tolist(), [[1, 2, 1]]),
    "canonicalize-trivial-dual": (
        lambda: rankfix.dual_canonicalize(StsInstance(BlockDesign(0, ()))),
        (rankfix.PointPermutation(0, ()), -1),
    ),
    "parallel-classes-v-not-divisible-by-3": (
        lambda: resolution.enumerate_parallel_classes(small_sts(7).design), ((), True, 0),
    ),
    "resolvable-63-zero-budget": (
        lambda: resolvable_sts(63, resolution.SearchLimits(node_budget=0)), None,
    ),
}


@pytest.mark.parametrize("name", sorted(SENTINEL_CASES))
def test_degenerate_input_sentinel(name):
    call, result = SENTINEL_CASES[name]
    assert call() == result


@pytest.mark.parametrize("name", sorted(INGREDIENT_CASES))
def test_compose_resolution_ingredient_failure(name):
    dec, parts = order9()
    change, text = INGREDIENT_CASES[name]
    with pytest.raises(ValueError) as info:
        compose_resolution(dec, **{**parts, **change})
    assert type(info.value) is ValueError
    assert str(info.value) == text


def failing_on(v):
    """A verify_resolution stand-in that fails every triple system on v
    points (v(v-1)/6 blocks) and checks every other design."""

    def check(d, r):
        if d.v == v and len(d.blocks) == v * (v - 1) // 6:
            return VerificationReport(False, ("forced failure",))
        return verify_resolution(d, r)

    return check


def test_internal_certificate_failures(monkeypatch):
    # The certificates that cannot fail on the library's own constructions,
    # made to fail, keep their AssertionError and text.
    dec = random_decomposition(1, 7, random.Random(0))
    with monkeypatch.context() as m:
        m.setattr(gf3, "is_orthogonal", lambda s, space: False)
        with pytest.raises(
            AssertionError, match=r"^composed system is not orthogonal to G\(21,1\)$"
        ):
            compose(dec)

    ag2 = affine_geometry(2)
    with monkeypatch.context() as m:
        m.setattr(composition, "affine_geometry", lambda k: constructions.AffineGeometry(
            2, ag2.sts, Resolution(((0,), tuple(range(1, 12))))))
        with pytest.raises(
            AssertionError, match=r"^the class of \(0,1,2\) is not the inner blocks of AG\(k\)$"
        ):
            composition.split_standard_resolution(2)

    with monkeypatch.context() as m:
        m.setattr(constructions, "are_orthogonal", lambda a, b: False)
        with pytest.raises(AssertionError, match=r"^linear pair failed the orthogonality check$"):
            latin_with_mate(3)

    with monkeypatch.context() as m:
        m.setattr(rankfix, "_dual_layout",
                  lambda d: rankfix.PointPermutation.identity(d.ambient_dim))
        with pytest.raises(
            AssertionError, match=r"^canonicalization failed to reach the standard layout$"
        ):
            rankfix.dual_canonicalize(StsInstance(BlockDesign(9, SWAPPED_AG2)))

    with monkeypatch.context() as m:
        m.setattr(gf3, "intersect_dim", lambda a, b: 2)
        with pytest.raises(
            AssertionError, match=r"^intersection permutation failed verification$"
        ):
            rankfix.perm_intersection(9, 1)

    with monkeypatch.context() as m:
        m.setattr(bounds, "factorial", lambda n: 1)
        with pytest.raises(AssertionError, match=r"^1764 does not divide 3! \* 7!\^3$"):
            bounds.example_n3_bound()

    monkeypatch.setattr(composition, "verify_resolution", failing_on(9))
    dec, parts = order9()
    with pytest.raises(AssertionError, match=r"^assembled resolution invalid: forced failure$"):
        compose_resolution(dec, **parts)

    monkeypatch.setattr(constructions, "verify_resolution", failing_on(9))
    with pytest.raises(AssertionError, match=r"^translation resolution invalid: forced failure$"):
        affine_geometry.__wrapped__(2)

    monkeypatch.setattr(resolution, "verify_resolution", failing_on(15))
    with pytest.raises(
        AssertionError, match=r"^search produced an invalid resolution: forced failure$"
    ):
        kts15()

    monkeypatch.setattr(resolution, "verify_resolution", failing_on(9))
    with pytest.raises(
        AssertionError, match=r"^search produced an invalid resolution: forced failure$"
    ):
        resolution.search_resolution(affine_geometry(2).sts.design)


HEADER = '{{"format_version":"1","kind":"{kind}","v":{v}}}\n'
TD3_BODY = "".join(f"[{a},{b},{c}]\n" for a, b, c in TD3)

# name -> (file text, extra arguments, stdout line, exit code).  Without a
# file text the file verified is `construct ag --k 2`'s system; "AG2" and
# "AG2.res" in the extra arguments name its system and resolution files,
# and "AG2.res-v27" that resolution file with its header's v set to 27.
VERIFY_CASES = {
    "broken-sts": (
        HEADER.format(kind="sts", v=4) + "[0,1,2]\n[0,1,3]\n", (),
        '{"ok":false,"checks":[{"check":"sts-axioms","ok":false,'
        '"detail":"pair (0, 1) covered 2 times"}]}', 1,
    ),
    "duplicate-sts-block": (
        HEADER.format(kind="sts", v=3) + "[0,1,2]\n[0,1,2]\n", ("--rank", "3"),
        '{"ok":false,"checks":[{"check":"well-formed","ok":false,'
        '"detail":"duplicate block (0, 1, 2)"}]}', 1,
    ),
    "td-without-groups": (
        HEADER.format(kind="td", v=9) + TD3_BODY, (),
        '{"ok":false,"checks":[{"check":"td-axioms","ok":false,'
        '"detail":"missing groups record"}]}', 1,
    ),
    "td-missing-block": (
        HEADER.format(kind="td", v=9) + '{"groups":[[0,1,2],[3,4,5],[6,7,8]]}\n'
        + TD3_BODY.rsplit("[", 1)[0], ("--rank", "3"),
        '{"ok":false,"checks":[{"check":"td-axioms","ok":false,'
        '"detail":"cross pair (2, 5) covered 0 times"},'
        '{"check":"rank-3","ok":true,"value":6}]}', 1,
    ),
    "resolution-non-partition": (
        HEADER.format(kind="resolution", v=9)
        + "[[0,1,2],[3,4,5],[6,7,8]]\n[[0,3,6],[1,4,7]]\n", (),
        '{"ok":false,"checks":[{"check":"resolution","ok":false,'
        '"detail":"class 1 is not a partition of the points"}]}', 1,
    ),
    "resolution-duplicate-block": (
        HEADER.format(kind="resolution", v=9)
        + "[[0,1,2],[3,4,5],[6,7,8]]\n[[0,1,2],[3,4,5],[6,7,8]]\n",
        ("--orthogonal-to", "9,2", "--rank", "3"),
        '{"ok":false,"checks":[{"check":"well-formed","ok":false,'
        '"detail":"duplicate block (0, 1, 2)"}]}', 1,
    ),
    # The design is named by the repr of the block as the file gave it, a
    # tuple, not by an array's repr: a reader handing BlockDesign an array
    # would print "array([3, 4, 9])".
    "sts-out-of-range": (
        HEADER.format(kind="sts", v=9) + "[0,1,2]\n[3,4,9]\n", (),
        '{"ok":false,"checks":[{"check":"well-formed","ok":false,'
        '"detail":"block (3, 4, 9) out of range for v=9"}]}', 1,
    ),
    "resolution-out-of-range": (
        HEADER.format(kind="resolution", v=9) + "[[0,1,2],[3,4,9]]\n", (),
        '{"ok":false,"checks":[{"check":"well-formed","ok":false,'
        '"detail":"block (3, 4, 9) out of range for v=9"}]}', 1,
    ),
    # Two bad blocks: the first in file order is named, as for an sts file.
    "resolution-out-of-range-file-order": (
        HEADER.format(kind="resolution", v=9) + "[[0,1,2],[3,4,99]]\n[[0,1,50],[3,4,5]]\n", (),
        '{"ok":false,"checks":[{"check":"well-formed","ok":false,'
        '"detail":"block (3, 4, 99) out of range for v=9"}]}', 1,
    ),
    "resolution-file-and-foreign-resolution": (
        HEADER.format(kind="resolution", v=9)
        + "[[0,1,2],[3,4,5],[6,7,8]]\n[[0,3,6],[1,4,7],[2,5,8]]\n",
        ("--resolution", "AG2.res", "--orthogonal-to", "9,1"),
        '{"ok":false,"checks":[{"check":"resolution","ok":true},'
        '{"check":"resolution","ok":false,'
        '"detail":"resolution references unknown block (0, 4, 8)"},'
        '{"check":"orthogonal","ok":true}]}', 1,
    ),
    "resolution-flag-on-sts-file": (
        None, ("--resolution", "AG2"),
        '{"ok":false,"checks":[{"check":"sts-axioms","ok":true},'
        '{"check":"resolution","ok":false,"detail":"not a resolution file"}]}', 1,
    ),
    # Every block of AG(2) is a block of the design, so only the header's
    # v tells this file from AG(2)'s resolution.
    "resolution-file-of-another-order": (
        None, ("--resolution", "AG2.res-v27"),
        '{"ok":false,"checks":[{"check":"sts-axioms","ok":true},'
        '{"check":"resolution","ok":false,"detail":"resolution file has v=27, design has v=9"}]}', 1,
    ),
    "orthogonal-wrong-v": (
        None, ("--orthogonal-to", "27,3", "--rank", "3"),
        '{"ok":false,"checks":[{"check":"sts-axioms","ok":true},'
        '{"check":"orthogonal","ok":false,"detail":"file has v=9, expected 27"},'
        '{"check":"rank-3","ok":true,"value":6}]}', 1,
    ),
    "orthogonal-not-orthogonal": (
        # AG(2) with points 2 and 3 swapped: an STS, not orthogonal to G(9,1).
        HEADER.format(kind="sts", v=9) + "[0,1,3]\n[0,2,6]\n[0,4,8]\n[0,5,7]\n[1,2,8]\n"
        "[1,4,7]\n[1,5,6]\n[2,3,7]\n[3,4,6]\n[3,5,8]\n[2,4,5]\n[6,7,8]\n",
        ("--orthogonal-to", "9,1"),
        '{"ok":false,"checks":[{"check":"sts-axioms","ok":true},'
        '{"check":"orthogonal","ok":false}]}', 1,
    ),
    "all-pass": (
        None, ("--resolution", "AG2.res", "--orthogonal-to", "9,2", "--rank", "3"),
        '{"ok":true,"checks":[{"check":"sts-axioms","ok":true},'
        '{"check":"resolution","ok":true},{"check":"orthogonal","ok":true},'
        '{"check":"rank-3","ok":true,"value":6}]}', 0,
    ),
}


@pytest.fixture(scope="module")
def ag2(tmp_path_factory):
    d = tmp_path_factory.mktemp("ag2")
    assert main(["construct", "ag", "--k", "2", "--out", str(d / "ag2")]) == 0
    res = (d / "ag2.resolution.jsonl").read_text(encoding="utf-8")
    (d / "ag2-v27.resolution.jsonl").write_text(res.replace('"v":9', '"v":27', 1), encoding="utf-8")
    return d / "ag2"


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_failure_report(ag2, tmp_path, capsys, name):
    text, extra, line, code = VERIFY_CASES[name]
    files = {"AG2": f"{ag2}.sts.jsonl", "AG2.res": f"{ag2}.resolution.jsonl",
             "AG2.res-v27": f"{ag2}-v27.resolution.jsonl"}
    path = files["AG2"]
    if text is not None:
        path = tmp_path / "input.jsonl"
        path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    got = main(["verify", str(path), *(files.get(a, a) for a in extra)])
    out, err = capsys.readouterr()
    assert (out, err, got) == (line + "\n", "", code)
    assert json.loads(out)["ok"] is (code == 0)


@pytest.mark.parametrize("argv, message", [
    (["--orthogonal-to", "9"], "--orthogonal-to expects v,k"),
    (["--orthogonal-to", "9,x"], "--orthogonal-to expects v,k"),
    (["--resolution", "MALFORMED"], "unknown kind 'blocks'"),
])
def test_verify_bad_parameters_exit_2(ag2, tmp_path, capsys, argv, message):
    bad = tmp_path / "malformed.jsonl"
    bad.write_text('{"format_version":"1","kind":"blocks","v":3}\n', encoding="utf-8")
    argv = [str(bad) if a == "MALFORMED" else a for a in argv]
    capsys.readouterr()
    assert main(["verify", f"{ag2}.sts.jsonl", *argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_construct_write_failure_exits_4(tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert main(["construct", "ag", "--k", "1", "--out", str(out)]) == 4
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert stderr == (
        f"i/o error: [Errno 2] No such file or directory: '{out}.sts.jsonl'\n"
    )


def test_missing_resolution_file_exits_4(ag2, tmp_path, capsys):
    absent = tmp_path / "absent.jsonl"
    capsys.readouterr()
    assert main(["verify", f"{ag2}.sts.jsonl", "--resolution", str(absent)]) == 4
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert re.fullmatch(r"i/o error: \[Errno 2\] No such file or directory: '.*'\n", stderr)


DEC_HEADER = '{"format_version":"1","kind":"decomposition","v":9,"k":1}\n'
AG2_RES = "[[0,1,2],[3,4,5],[6,7,8]]\n[[0,3,6],[1,4,7],[2,5,8]]\n"
COMPOSED_21 = compose(random_decomposition(1, 7, random.Random(1)))


def dec_file(s, k):
    """A decomposition file holding s with k in its header."""
    return serialize(sts_record(s, k=k, kind="decomposition"))


def shifted(s):
    """s relabelled by the cyclic shift i -> i + 1 mod v."""
    return permute_sts(s, [(i + 1) % s.v for i in range(s.v)])


# name -> (arguments, input file text, error line).  "IN" in the arguments
# names a file holding the text.  Each case exits 2 with the one line on
# stderr, prints nothing and writes no file.
EXIT_2_CASES = {
    "compose-k0": (
        ("construct", "compose", "--k", "0", "--T", "7"), None,
        "--k must be >= 1 and --T admissible (1 or 3 mod 6)",
    ),
    "compose-t-above-k": (
        ("construct", "compose", "--k", "2", "--T", "7", "--t", "3"), None,
        "--t must satisfy 0 <= t <= k",
    ),
    "force-rank-on-sts-file": (
        ("construct", "force-rank", "--in", "IN"), HEADER.format(kind="sts", v=9) + TD3_BODY,
        "force-rank needs a decomposition file (with k)",
    ),
    # The checks of force-rank in the order they run: k, then the layout,
    # then the sub-system order.
    "force-rank-negative-k": (
        ("construct", "force-rank", "--in", "IN"), dec_file(COMPOSED_21, -1),
        "3^k must divide v, got v=21, k=-1",
    ),
    "force-rank-k0": (
        ("construct", "force-rank", "--in", "IN"), dec_file(COMPOSED_21, 0),
        "k must be >= 1",
    ),
    "force-rank-k-not-dividing": (
        ("construct", "force-rank", "--in", "IN"), dec_file(COMPOSED_21, 2),
        "3^k must divide v, got v=21, k=2",
    ),
    # A k whose power cannot divide v is refused before 3^k is computed.
    "force-rank-huge-k": (
        ("construct", "force-rank", "--in", "IN"), dec_file(COMPOSED_21, 10**9),
        "3^k must divide v, got v=21, k=1000000000",
    ),
    "verify-orthogonal-huge-k": (
        ("verify", "IN", "--orthogonal-to", "21,1000000000"),
        serialize(sts_record(COMPOSED_21)),
        "3^k must divide v, got v=21, k=1000000000",
    ),
    # G(0, 0) is checked before k, as the layout is built first.
    "force-rank-no-points": (
        ("construct", "force-rank", "--in", "IN"), dec_file(StsInstance(BlockDesign(0, ())), 0),
        "need v >= 1 and k >= 0, got v=0, k=0",
    ),
    "force-rank-order-3": (
        ("construct", "force-rank", "--in", "IN"), dec_file(affine_geometry(2).sts, 1),
        "sub-system order must exceed 3",
    ),
    "force-rank-not-orthogonal": (
        ("construct", "force-rank", "--in", "IN"), dec_file(shifted(COMPOSED_21), 1),
        "system is not orthogonal to G(21,1) as laid out",
    ),
    "force-rank-order-3-not-orthogonal": (
        ("construct", "force-rank", "--in", "IN"), dec_file(shifted(affine_geometry(2).sts), 1),
        "system is not orthogonal to G(9,1) as laid out",
    ),
    "resolve-on-resolution-file": (
        ("construct", "resolve", "--in", "IN"), HEADER.format(kind="resolution", v=9) + AG2_RES,
        "resolve needs an sts (or decomposition) file",
    ),
    # Named by the tuple's repr, as in "sts-out-of-range" of VERIFY_CASES.
    "force-rank-out-of-range": (
        ("construct", "force-rank", "--in", "IN"), DEC_HEADER + "[0,1,2]\n[3,4,9]\n",
        "block (3, 4, 9) out of range for v=9",
    ),
    # Each line is one record: a block split over two lines is malformed,
    # though the joined body "[0,1],[2,3]" would parse as two blocks.
    "verify-block-split-over-lines": (
        ("verify", "IN"), HEADER.format(kind="sts", v=9) + "[0,1],[2\n3]\n",
        "Extra data: line 1 column 6 (char 5)",
    ),
    "verify-empty-file": (("verify", "IN"), "\n \n", "empty design file"),
    "verify-header-not-object": (
        ("verify", "IN"), "[0,1,2]\n", "first record must be a header object",
    ),
    "verify-blank-line-before-body": (
        ("verify", "IN"), "\n[0,1,2]\n", "first record must be a header object",
    ),
    "verify-object-in-body": (
        ("verify", "IN"), HEADER.format(kind="sts", v=3) + '{"blocks":[[0,1,2]]}\n',
        "unexpected object record in body",
    ),
}


@pytest.mark.parametrize("name", sorted(EXIT_2_CASES))
def test_cli_exit_2(tmp_path, monkeypatch, capsys, name):
    argv, text, line = EXIT_2_CASES[name]
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "input.jsonl").write_text(text, encoding="utf-8")
    capsys.readouterr()
    got = main(["input.jsonl" if a == "IN" else a for a in argv])
    assert (capsys.readouterr(), got) == (("", f"error: {line}\n"), 2)
    assert [p.name for p in tmp_path.iterdir()] == (["input.jsonl"] if text is not None else [])
