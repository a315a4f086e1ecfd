"""Design file serialization round trips."""

import json
import random
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisys.composition import compose, random_decomposition
from trisys.constructions import affine_geometry, latin_with_mate
from trisys.designs import BlockDesign, td_from_latin, verify_resolution
from trisys.io import (
    KINDS,
    DesignFileRecord,
    deserialize,
    resolution_from_record,
    resolution_record,
    serialize,
    sts_record,
    td_record,
)


def test_sts_round_trip_is_byte_identical():
    ag = affine_geometry(2)
    rec = sts_record(ag.sts, k=2)
    text = serialize(rec)
    assert serialize(deserialize(text)) == text
    back = deserialize(text)
    assert back.kind == "sts" and back.v == 9 and back.k == 2
    assert back.blocks == ag.sts.blocks


def test_td_round_trip_keeps_groups():
    td = td_from_latin(latin_with_mate(3)[0])
    text = serialize(td_record(td))
    back = deserialize(text)
    assert back.groups == td.groups
    assert back.blocks == td.blocks
    assert serialize(back) == text


def test_resolution_round_trip_and_rebinding():
    ag = affine_geometry(2)
    rec = resolution_record(ag.sts.design, ag.standard_resolution)
    text = serialize(rec)
    back = deserialize(text)
    res = resolution_from_record(back, ag.sts.design)
    assert verify_resolution(ag.sts.design, res).ok
    assert serialize(back) == text


def test_resolution_rebinding_rejects_unknown_block():
    ag = affine_geometry(2)
    rec = resolution_record(ag.sts.design, ag.standard_resolution)
    other = BlockDesign(9, ag.sts.blocks[:-1])
    with pytest.raises(ValueError):
        resolution_from_record(rec, other)


def test_unknown_format_version_rejected():
    with pytest.raises(ValueError):
        deserialize('{"format_version":"2","kind":"sts","v":3}\n[0,1,2]\n')


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        deserialize('{"format_version":"1","kind":"mystery","v":3}\n')


def test_decomposition_kind_carries_k():
    rec = DesignFileRecord("decomposition", 9, k=1, blocks=((0, 1, 2),))
    back = deserialize(serialize(rec))
    assert back.kind == "decomposition" and back.k == 1


def encode_line_by_line(rec):
    """The writer's bytes as they were produced before a body became one
    encoder call: the header, the groups record, then one dump per block or
    class."""
    dump = partial(json.dumps, separators=(",", ":"))
    header = {"format_version": "1", "kind": rec.kind, "v": rec.v}
    if rec.k is not None:
        header["k"] = rec.k
    if rec.T is not None:
        header["T"] = rec.T
    lines = [dump(header)]
    if rec.groups is not None:
        lines.append(dump({"groups": [list(g) for g in rec.groups]}))
    body = rec.classes if rec.kind == "resolution" else rec.blocks
    lines += [dump(list(x)) for x in body]
    return "\n".join(lines) + "\n"


points = st.integers(-(2**70), 2**70)
blocks = st.lists(st.tuples(*[points] * 3) | st.lists(points, max_size=4).map(tuple), max_size=6)
records = st.builds(
    DesignFileRecord,
    kind=st.sampled_from(KINDS),
    v=points,
    k=st.none() | points,
    T=st.none() | points,
    blocks=blocks.map(tuple),
    classes=st.lists(blocks.map(tuple), max_size=4).map(tuple),
    groups=st.none() | st.lists(st.lists(points, max_size=4).map(tuple), max_size=4).map(tuple),
)


@given(records)
@settings(max_examples=300, deadline=None)
def test_serialize_matches_line_by_line_encoding(rec):
    text = serialize(rec)
    assert text == encode_line_by_line(rec)
    assert serialize(deserialize(text)) == text


def per_line_deserialize(text):
    """The reader as it was before a canonical block body became one decoder
    call: one json.loads per line (the oracle for deserialize)."""

    def integer(x):
        if type(x) is not int:
            raise TypeError(f"not an integer: {x!r}")
        return x

    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design file")

    def parse(i, convert=lambda r: r):
        try:
            return convert(json.loads(lines[i]))
        except (KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed record {i + 1}: {lines[i].strip()[:80]}") from exc

    header = parse(0)
    if not isinstance(header, dict):
        raise ValueError("first record must be a header object")
    if header.get("format_version") != "1":
        raise ValueError(f"unsupported format_version {header.get('format_version')!r}")
    kind = header.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    v, k, t = parse(
        0, lambda h: (integer(h["v"]), *(integer(h[x]) if x in h else None for x in "kT"))
    )
    second = parse(1) if len(lines) > 1 else None
    groups = None
    if isinstance(second, dict):
        if "groups" not in second:
            raise ValueError("unexpected object record in body")
        groups = parse(1, lambda r: tuple(tuple(map(integer, g)) for g in r["groups"]))
    body = range(1 if groups is None else 2, len(lines))
    if kind == "resolution":
        classes = tuple(parse(i, lambda c: tuple(tuple(map(integer, b)) for b in c)) for i in body)
        return DesignFileRecord(kind, v, k, t, (), classes, groups)
    blocks = tuple(parse(i, lambda b: tuple(map(integer, b))) for i in body)
    return DesignFileRecord(kind, v, k, t, blocks, (), groups)


def outcome(read, text):
    """repr of the record read (so 1 and True differ), or the exception's
    type and text."""
    try:
        return repr(read(text))
    except Exception as exc:  # the oracle compares any failure
        return type(exc), str(exc)


canonical_lines = st.lists(st.integers(0, 10**18 - 1), min_size=1, max_size=4).map(
    partial(json.dumps, separators=(",", ":"))
)
perturbed_lines = st.sampled_from([
    "[0, 1, 2]", " [0,1,2]", "[0,1,2] ", "[00,1,2]", "[0,01,2]", "[0,1],[2", "3]",
    "[-1,2,3]", "[-0,1,2]", "[1.0,2,3]", "[1e2,1,2]", "[true,1,2]", "[null,1,2]",
    '["0",1,2]', "[]", "[0,1]", "[0,1,2,3]", "[[0,1,2]]", "{}", '{"groups":[]}', "0",
    "[1000000000000000000,1,2]", "[" + "9" * 5000 + ",1,2]", "[0,1,٣]", "[0,1,2",
    "[0,1,2]x", "\t", "[0,1,2]\x0c[3,4,5]",
])
bodies = st.lists(canonical_lines, max_size=6) | st.lists(
    canonical_lines | perturbed_lines, min_size=1, max_size=6
)


@given(
    kind=st.sampled_from(("sts", "td", "decomposition", "resolution")),
    groups=st.sampled_from(("", '{"groups":[[0],[1],[2]]}', '{"groups":[[0,1],[2]]}')),
    body=bodies,
    newline=st.sampled_from(("\n", "\r\n")),
    blank=st.sampled_from(("", " ", "\r\n")),
    end=st.booleans(),
)
@example(kind="sts", groups="", body=["[4,5,6]", "[0,1],[2", "3]"], newline="\n", blank="",
         end=True)
@example(kind="sts", groups="", body=["[0,1,2]", "[00,3,4]"], newline="\n", blank="", end=True)
@example(kind="td", groups="", body=["[0,1,2]", "[-1,3,4]"], newline="\r\n", blank=" ", end=False)
@settings(max_examples=400, deadline=None)
def test_deserialize_matches_the_per_line_reader(kind, groups, body, newline, blank, end):
    lines = ['{"format_version":"1","kind":"%s","v":9,"T":3}' % kind, groups, *body]
    text = (newline + blank).join(lines) + (newline if end else "")
    assert outcome(deserialize, text) == outcome(per_line_deserialize, text)


def test_deserialize_of_a_long_body_matches_the_per_line_reader():
    s = compose(random_decomposition(3, 13, random.Random(0)))
    text = serialize(sts_record(s, k=3, t=13, kind="decomposition"))
    assert len(s.blocks) > 4 * 4096
    assert outcome(deserialize, text) == outcome(per_line_deserialize, text)
    assert deserialize(text).blocks == s.blocks
