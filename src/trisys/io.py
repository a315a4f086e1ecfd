"""JSON-lines design files.

Line 1 is a header {"format_version": "1", "kind": ..., "v": ..., [k, T]};
an optional groups record follows for transversal designs; then one body
record per line: a block [a, b, c] for sts/td/decomposition files, or a
parallel class [[a,b,c], ...] for resolution files.  A decomposition file
carries the composed block list plus k in the header, which is the whole
decomposition up to the standard reading-off.  Serialization is canonical
(sorted blocks, fixed key order, compact separators) so parse/serialize
round-trips byte for byte.

A block body is encoded with one encoder call and split into lines; a
resolution body with one call per class.  Each line is a record on its
own: the reader parses a block body in one pass only if every line is a
canonical block (_CANONICAL_BLOCK), else, and for a resolution body, line
by line, so a block split over two lines is malformed and a bad block is
named by the tuple it was read as.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .designs import Block, BlockDesign, Resolution, StsInstance, TdInstance

FORMAT_VERSION = "1"
KINDS = ("sts", "td", "resolution", "decomposition")
_CHUNK = 4096  # canonical body lines per decoder call
_CANONICAL_BLOCK = r"\[(?:0|[1-9][0-9]{0,17})(?:,(?:0|[1-9][0-9]{0,17}))*\]"


@dataclass(frozen=True)
class DesignFileRecord:
    kind: str
    v: int
    k: int | None = None
    T: int | None = None
    blocks: tuple[Block, ...] = ()
    classes: tuple[tuple[Block, ...], ...] = ()
    groups: tuple[tuple[int, ...], ...] | None = None


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def serialize(rec: DesignFileRecord) -> str:
    if rec.kind not in KINDS:
        raise ValueError(f"unknown kind {rec.kind!r}")
    header: dict = {"format_version": FORMAT_VERSION, "kind": rec.kind, "v": rec.v}
    if rec.k is not None:
        header["k"] = rec.k
    if rec.T is not None:
        header["T"] = rec.T
    lines = [_dump(header)]
    if rec.groups is not None:
        lines.append(_dump({"groups": rec.groups}))
    if rec.kind == "resolution":
        lines += map(_dump, rec.classes)
    elif rec.blocks:
        # Blocks hold integers only, so "],[" occurs only between two blocks.
        lines.append(_dump(rec.blocks)[1:-1].replace("],[", "]\n["))
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> DesignFileRecord:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty design file")

    def parse(i: int, convert=lambda r: r):
        # A record of the wrong shape, or nested deeper than the decoder can
        # recurse, is a ValueError naming it, not a KeyError, TypeError or
        # RecursionError.
        try:
            return convert(json.loads(lines[i]))
        except (KeyError, TypeError, OverflowError, RecursionError) as exc:
            raise ValueError(f"malformed record {i + 1}: {lines[i].strip()[:80]}") from exc

    header = parse(0)
    if not isinstance(header, dict):
        raise ValueError("first record must be a header object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {header.get('format_version')!r}")
    kind = header.get("kind")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")

    v, k, t = parse(0, lambda h: (_int(h["v"]), *(_int(h[x]) if x in h else None for x in "kT")))
    second = parse(1) if len(lines) > 1 else None
    groups = None
    if isinstance(second, dict):
        if "groups" not in second:
            raise ValueError("unexpected object record in body")
        groups = parse(1, lambda r: tuple(tuple(map(_int, g)) for g in r["groups"]))
    body = range(1 if groups is None else 2, len(lines))
    if kind == "resolution":
        classes = tuple(parse(i, lambda c: tuple(tuple(map(_int, b)) for b in c)) for i in body)
        return DesignFileRecord(kind, v, k, t, (), classes, groups)
    rows = lines[body.start:]
    if all(map(re.compile(_CANONICAL_BLOCK).fullmatch, rows)):
        blocks = tuple(b for i in range(0, len(rows), _CHUNK)
                       for b in map(tuple, json.loads("[" + ",".join(rows[i:i + _CHUNK]) + "]")))
    else:
        blocks = tuple(parse(i, lambda b: tuple(map(_int, b))) for i in body)
    return DesignFileRecord(kind, v, k, t, blocks, (), groups)


def _int(x) -> int:
    """A JSON integer as is; a float, string, bool or null is malformed."""
    if type(x) is not int:
        raise TypeError(f"not an integer: {x!r}")
    return x


def write_design(path: str, rec: DesignFileRecord) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(rec))


def read_design(path: str) -> DesignFileRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())


def sts_record(s: StsInstance, k: int | None = None, t: int | None = None,
               kind: str = "sts") -> DesignFileRecord:
    return DesignFileRecord(kind, s.v, k, t, s.blocks)


def td_record(td: TdInstance) -> DesignFileRecord:
    return DesignFileRecord("td", td.v, None, td.w, td.blocks, (), td.groups)


def resolution_record(d: BlockDesign, r: Resolution) -> DesignFileRecord:
    classes = tuple(tuple(map(tuple, d.array[c].tolist())) for c in r.class_arrays())
    return DesignFileRecord("resolution", d.v, None, None, (), classes)


def resolution_from_record(rec: DesignFileRecord, d: BlockDesign) -> Resolution:
    """Rebind a resolution file's inline blocks to indices into d; the
    first one, in file order, that is not a block of d is named."""
    flat = [sorted(b) for cls in rec.classes for b in cls]
    n = next((i for i, b in enumerate(flat) if len(b) != 3 or b[0] < 0 or b[2] >= d.v),
             len(flat))
    try:
        pos = d.lookup(np.array(flat[:n], dtype=np.int64).reshape(-1, 3))
        if n < len(flat):
            raise KeyError(tuple(flat[n]))
    except KeyError as exc:
        raise ValueError(f"resolution references unknown block {exc.args[0]}") from exc
    ends = np.cumsum([len(cls) for cls in rec.classes], dtype=np.intp)
    return Resolution([np.sort(c) for c in np.split(pos, ends)[:-1]])
