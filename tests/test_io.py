"""Design file serialization round trips."""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
