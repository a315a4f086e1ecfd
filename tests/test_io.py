"""Design file serialization round trips."""

import json
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trisys.composition import compose, random_decomposition
from trisys.constructions import affine_geometry, latin_with_mate
from trisys.designs import BlockDesign, Resolution, td_from_latin, verify_resolution
from trisys import io
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


def test_an_empty_resolution_is_its_header_line_alone():
    rec = resolution_record(BlockDesign(0, ()), Resolution(()))
    text = serialize(rec)
    assert text == '{"format_version":"1","kind":"resolution","v":0}\n'
    back = deserialize(text)
    assert back.class_body == () and back == rec
    assert resolution_from_record(back, BlockDesign(0, ())).n_classes == 0


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
@example(kind="sts", groups="", body=[" [6,7,8]", "[0,1,2]", "[3,4,5]"], newline="\n",
         blank="", end=True)
@example(kind="resolution", groups="", body=["[0,1,2]", "[3,4,5]"], newline="\n", blank="",
         end=True)
@example(kind="td", groups='{"groups":[[0],[1],[2]]}', body=["[0,1,2]"], newline="\n",
         blank="", end=True)
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


def dump(x):
    return json.dumps(x, separators=(",", ":"))


def canonical_oracle(body):
    """The rows of a body read line by line, if every line re-encodes as
    itself: a JSON list of three integers in [0, 10^18), each line ending
    in "\\n"; else None (the oracle for the reader's byte check)."""
    if not body.endswith("\n"):
        return None
    rows = []
    for line in body[:-1].split("\n"):
        try:
            x = json.loads(line)
        except ValueError:
            return None
        if not (type(x) is list and len(x) == 3 and dump(x) == line
                and all(type(p) is int and 0 <= p < 10**18 for p in x)):
            return None
        rows.append(x)
    return rows


# Each perturbation rewrites one canonical line (a list of three ints).
PERTURBATIONS = {
    "none": lambda r: dump(r),
    "18 digits": lambda r: dump([10**18 - 1, *r[1:]]),
    "19 digits": lambda r: dump([10**18, *r[1:]]),
    "minus zero": lambda r: dump(["#", *r[1:]]).replace('"#"', "-0"),
    "leading zero": lambda r: "[0" + dump(r)[1:],
    "arabic-indic digit": lambda r: "[٣" + dump(r)[2:],
    "carriage return": lambda r: dump(r) + "\r",
    "blank line": lambda r: "\n" + dump(r),
    "two values": lambda r: dump(r[:2]),
    "four values": lambda r: dump([*r, 0]),
    "split over two lines": lambda r: dump(r).replace(",", ",\n", 1),
    "digit before the block": lambda r: "7" + dump(r),
    "digit after the block": lambda r: dump(r) + "7",
}


@given(
    rows=st.lists(st.lists(st.integers(0, 10**18 - 1), min_size=3, max_size=3),
                  min_size=1, max_size=5),
    perturbation=st.sampled_from(sorted(PERTURBATIONS)),
    where=st.integers(0, 4),
    end=st.sampled_from(("\n", "", "\n7")),
)
@example(rows=[[0, 1, 2], [3, 4, 5]], perturbation="digit before the block", where=1, end="\n")
@example(rows=[[0, 1, 2]], perturbation="none", where=0, end="\n7")
@settings(max_examples=400, deadline=None)
def test_byte_check_matches_the_per_line_oracle(rows, perturbation, where, end):
    lines = [dump(r) for r in rows]
    i = where % len(rows)
    lines[i] = PERTURBATIONS[perturbation](rows[i])
    body = "\n".join(lines) + end
    expected = canonical_oracle(body)
    got = io._canonical_rows(body)
    assert (None if got is None else got.tolist()) == expected
    text = '{"format_version":"1","kind":"sts","v":9}\n' + body
    assert outcome(deserialize, text) == outcome(per_line_deserialize, text)



# Each perturbation rewrites one canonical class line (a list of blocks).
CLASS_PERTURBATIONS = {
    "none": lambda c: dump(c),
    "bare block": lambda c: dump(c[0]),
    "spaces around": lambda c: " " + dump(c)[1:-1] + " ",
    "braces around": lambda c: "{" + dump(c)[1:-1] + "}",
    "empty class": lambda c: "[]",
    "two values": lambda c: dump([c[0][:2], *c[1:]]),
    "leading zero": lambda c: "[[0" + dump(c)[2:],
    "split over two lines": lambda c: dump(c).replace(",", ",\n", 1),
}


@given(
    classes=st.lists(
        st.lists(st.lists(st.integers(0, 10**18 - 1), min_size=3, max_size=3),
                 min_size=1, max_size=3),
        min_size=1, max_size=3),
    perturbation=st.sampled_from(sorted(CLASS_PERTURBATIONS)),
    where=st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_resolution_byte_check_matches_the_per_line_reader(classes, perturbation, where):
    lines = [dump(c) for c in classes]
    i = where % len(classes)
    lines[i] = CLASS_PERTURBATIONS[perturbation](classes[i])
    text = '{"format_version":"1","kind":"resolution","v":9}\n' + "\n".join(lines) + "\n"
    assert outcome(deserialize, text) == outcome(per_line_deserialize, text)
    if perturbation == "none":
        assert all(isinstance(c, np.ndarray) for c in deserialize(text).class_body)
        rec = deserialize(text)
        assert rec.body.shape == (sum(map(len, classes)), 3) and rec.body.dtype == np.int64
        assert all(np.shares_memory(rec.body, c) for c in rec.class_body)

def test_a_record_read_as_arrays_is_the_record_of_its_tuples():
    ag = affine_geometry(2)
    back = deserialize(serialize(sts_record(ag.sts, k=2)))
    assert isinstance(back.body, np.ndarray)
    tuples = DesignFileRecord("sts", 9, 2, None, ag.sts.blocks)
    assert back == tuples and hash(back) == hash(tuples) and repr(back) == repr(tuples)
    rec = resolution_record(ag.sts.design, ag.standard_resolution)
    back = deserialize(serialize(rec))
    assert all(isinstance(c, np.ndarray) for c in back.class_body)
    tuples = DesignFileRecord("resolution", 9, classes=rec.classes)
    assert back == tuples and hash(back) == hash(tuples) and repr(back) == repr(tuples)
    flat = tuple(b for cls in rec.classes for b in cls)
    assert back.blocks == tuples.blocks == flat and len(flat) == 12
    mixed = DesignFileRecord("resolution", 9, classes=(back.class_body[0], *rec.classes[1:]))
    assert mixed == tuples and hash(mixed) == hash(tuples)
    assert back != back.blocks and back.__eq__(back.blocks) is NotImplemented


def test_ag4_resolution_round_trip():
    ag = affine_geometry(4)
    rec = resolution_record(ag.sts.design, ag.standard_resolution)
    text = serialize(rec)
    assert text == encode_line_by_line(rec)
    back = deserialize(text)
    assert all(isinstance(c, np.ndarray) for c in back.class_body)
    assert back == rec and serialize(back) == text
    assert outcome(deserialize, text) == outcome(per_line_deserialize, text)
    assert resolution_from_record(back, ag.sts.design) == ag.standard_resolution


# Canonical resolution bodies naming a block of AG(2) minus (6, 7, 8) that
# it lacks: the array path names the first in file order, as the tuple path does.
UNKNOWN_BODIES = {
    "[[0,1,2],[3,4,5],[6,7,8]]\n": "(6, 7, 8)",
    "[[2,1,0]]\n[[0,4,8],[5,1,6],[9,10,11]]\n": "(9, 10, 11)",
    "[[0,1,100],[0,1,2]]\n": "(0, 1, 100)",
    "[[0,1,3],[1,0,2]]\n": "(0, 1, 3)",
    "[[0,1,2],[3,4,999999999999999999]]\n": "(3, 4, 999999999999999999)",
    # The packed code (a*v + b)*v + c of this block overflows int64.
    "[[999999999999999999,999999999999999998,5]]\n": "(5, 999999999999999998, 999999999999999999)",
}


@pytest.mark.parametrize("body", sorted(UNKNOWN_BODIES))
def test_array_resolution_names_the_first_unknown_block(body):
    rec = deserialize('{"format_version":"1","kind":"resolution","v":9}\n' + body)
    assert all(isinstance(c, np.ndarray) for c in rec.class_body)
    other = BlockDesign(9, affine_geometry(2).sts.blocks[:-1])
    with pytest.raises(ValueError) as info:
        resolution_from_record(rec, other)
    assert str(info.value) == f"resolution references unknown block {UNKNOWN_BODIES[body]}"
