"""JSON-lines design files.

Line 1 is a header {"format_version": "1", "kind": ..., "v": ..., [k, T]};
an optional groups record follows for transversal designs; then one body
record per line: a block [a, b, c] for sts/td/decomposition files, or a
parallel class [[a,b,c], ...] for resolution files.  A decomposition file
carries the composed block list plus k in the header, which is the whole
decomposition up to the standard reading-off.  Serialization is canonical
(sorted blocks, fixed key order, compact separators) so parse/serialize
round-trips byte for byte.

A record's `body` holds its blocks in file order, a tuple or a (b, 3) int
array, for every kind: a resolution record's `blocks` lists its classes'
blocks.  Its `class_body` holds the classes as tuples or as (n, 3) cuts of
that array; a record given only classes flattens them into `body`.
`blocks` and `classes` are tuple views, computed on access.

Writer.  Array rows are formatted by one `%` per chunk of at most _CHUNK
rows ("[%d,%d,%d]\\n" repeated), which gives the JSON encoder's bytes; a
chunk bounds the transient Python ints.  A tuple body, which may hold
anything, goes through the JSON encoder.

Reader.  The lines before the body, the header and groups, are read line
by line.  A block body is canonical when it is ASCII, its non-digit bytes
repeat "[,,]\\n", and its digit runs, three per line, are 1-18 digits long
with no leading zero.  Then every line is a JSON list of three integers
below 10^18, which fit int64, and one np.fromstring reads the whole body
as the (b, 3) array; np.fromstring would saturate a longer run silently,
hence the bound.  A resolution body is canonical when each line, stripped
of its outer brackets and with "],[" turned into a line break, is a
canonical block body: its blocks are read as one array and cut into
classes.  Any other body is read line by line too, each line a record on
its own, so a block split over two lines is malformed.  In every file kind
a bad block is named in file order, by the tuple it was read as.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .designs import Block, BlockDesign, Resolution, StsInstance, TdInstance

FORMAT_VERSION = "1"
KINDS = ("sts", "td", "resolution", "decomposition")
_CHUNK = 1 << 16  # rows per "%" when writing
_LINE = np.frombuffer(b"[,,]\n", dtype=np.uint8)  # a canonical line's non-digit bytes
_SPACES = str.maketrans("[,]", "   ")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class DesignFileRecord:
    """A design file's header fields and body.  `body` holds the blocks in
    file order, for a resolution too, and `class_body` its classes (module
    docstring); equality, hash and repr are on the tuple views, so a record
    read as arrays compares and prints like one built from the same tuples."""

    kind: str
    v: int
    k: int | None
    T: int | None
    body: tuple[Block, ...] | np.ndarray
    class_body: tuple
    groups: tuple[tuple[int, ...], ...] | None

    def __init__(self, kind, v, k=None, T=None, blocks=(), classes=(), groups=None):
        if kind == "resolution" and not len(blocks):
            blocks = tuple(b for cls in classes for b in _tuples(cls))
        vars(self).update(kind=kind, v=v, k=k, T=T, body=blocks, class_body=classes, groups=groups)

    @property
    def blocks(self) -> tuple[Block, ...]:
        return _tuples(self.body)

    @property
    def classes(self) -> tuple[tuple[Block, ...], ...]:
        return tuple(map(_tuples, self.class_body))

    def _view(self) -> tuple:
        return self.kind, self.v, self.k, self.T, self.blocks, self.classes, self.groups

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._view() == other._view()

    def __hash__(self) -> int:
        return hash(self._view())

    def __repr__(self) -> str:
        names = ("kind", "v", "k", "T", "blocks", "classes", "groups")
        return f"DesignFileRecord({', '.join(f'{n}={x!r}' for n, x in zip(names, self._view()))})"


def _tuples(body):
    """A body as tuples: an array's rows as tuples of ints, else as given."""
    return tuple(zip(*body.T.tolist())) if isinstance(body, np.ndarray) else body


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _formatted(rows: np.ndarray, row: str) -> list[str]:
    """The rows of an (n, 3) int array, each as `row` % (a, b, c)."""
    chunks = (rows[i:i + _CHUNK] for i in range(0, len(rows), _CHUNK))
    return [(row * len(c)) % tuple(c.ravel().tolist()) for c in chunks]


def _class_line(cls) -> str:
    if isinstance(cls, np.ndarray):
        return "[" + "".join(_formatted(cls, "[%d,%d,%d],"))[:-1] + "]"
    return _dump(cls)


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
        lines += map(_class_line, rec.class_body)
    elif isinstance(rec.body, np.ndarray):
        return "".join(["\n".join(lines) + "\n", *_formatted(rec.body, "[%d,%d,%d]\n")])
    elif rec.body:
        # Blocks hold integers only, so "],[" occurs only between two blocks.
        lines.append(_dump(rec.body)[1:-1].replace("],[", "]\n["))
    return "\n".join(lines) + "\n"


def _canonical_rows(body: str) -> np.ndarray | None:
    """The (b, 3) int64 rows of a canonical block body (module docstring),
    or None if the body is not canonical."""
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    marks = np.flatnonzero((b < ord("0")) | (b > ord("9")))  # the non-digit bytes
    if not marks.size or marks.size % 5 or marks[-1] != b.size - 1:
        return None
    marks = marks.reshape(-1, 5)
    runs = marks[:, 1:4] - marks[:, :3] - 1  # each line's three digit runs
    if not (
        (b[marks] == _LINE).all()
        and marks[0, 0] == 0
        and (marks[:, 4] == marks[:, 3] + 1).all()
        and (marks[1:, 0] == marks[:-1, 4] + 1).all()
        and ((runs >= 1) & (runs <= 18)).all()
        and not ((runs > 1) & (b[marks[:, :3] + 1] == ord("0"))).any()
    ):
        return None
    rows = np.fromstring(body.translate(_SPACES), dtype=np.int64, sep=" ").reshape(-1, 3)
    rows.flags.writeable = False
    return rows


def _canonical_classes(lines: list[str]) -> tuple[np.ndarray, tuple[np.ndarray, ...]] | None:
    """A canonical resolution body's (b, 3) int64 blocks and its classes as
    views of them (module docstring), or None if the body is not canonical."""
    if not all(ln.startswith("[") and ln.endswith("]") for ln in lines):
        return None
    rows = _canonical_rows("".join(ln[1:-1].replace("],[", "]\n[") + "\n" for ln in lines))
    if rows is None:
        return None
    ends = np.cumsum([ln.count("],[") + 1 for ln in lines])
    return rows, tuple(np.split(rows, ends[:-1]))


def _nonblank(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln.strip()]


def deserialize(text: str) -> DesignFileRecord:
    # The lines before the first that opens with "[" hold the header and
    # groups; a canonical block body from there on is read as one array.
    # A line opening with "[[" is a class, and no block body starts so.
    # Those lines, if any, are a prefix of the file, so a fault in them
    # is the fault the whole file is read as.
    cut = text.find("\n[") + 1
    rows = _canonical_rows(text[cut:]) if cut and not text.startswith("[[", cut) else None
    head = _nonblank(text[:cut])
    if rows is not None and head:
        rec = _read(head)
        if rec.kind != "resolution" and not rec.body:
            return DesignFileRecord(rec.kind, rec.v, rec.k, rec.T, rows, (), rec.groups)
    return _read(_nonblank(text))


def _read(lines: list[str]) -> DesignFileRecord:
    """The record of a design file's nonblank lines."""
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
        blocks, classes = _canonical_classes(lines[body.start:]) or ((), tuple(
            parse(i, lambda c: tuple(tuple(map(_int, b)) for b in c)) for i in body
        ))
        return DesignFileRecord(kind, v, k, t, blocks, classes, groups)
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
    return DesignFileRecord(kind, s.v, k, t, s.array)


def td_record(td: TdInstance) -> DesignFileRecord:
    return DesignFileRecord("td", td.v, None, td.w, td.array, (), td.groups)


def resolution_record(d: BlockDesign, r: Resolution) -> DesignFileRecord:
    blocks = d.array[r.index]
    classes = tuple(np.split(blocks, r.bounds[1:])[:-1])  # the last cut is empty
    return DesignFileRecord("resolution", d.v, None, None, blocks, classes)


def resolution_from_record(rec: DesignFileRecord, d: BlockDesign) -> Resolution:
    """Rebind a resolution file's inline blocks to indices into d; the
    first one, in file order, that is not a block of d is named.  A record
    of another kind, or of another order than d, is refused."""
    if rec.kind != "resolution":
        raise ValueError("not a resolution file")
    if rec.v != d.v:
        raise ValueError(f"resolution file has v={rec.v}, design has v={d.v}")
    if isinstance(rec.body, np.ndarray):
        flat, n = np.sort(rec.body, axis=1), len(rec.body)
    else:
        flat = [sorted(b) for b in rec.body]
        n = next((i for i, b in enumerate(flat) if len(b) != 3 or b[0] < 0 or b[2] >= d.v),
                 len(flat))
    try:
        pos = d.lookup(np.asarray(flat[:n], dtype=np.int64).reshape(-1, 3))
        if n < len(flat):
            raise KeyError(tuple(flat[n]))
    except KeyError as exc:
        raise ValueError(f"resolution references unknown block {exc.args[0]}") from exc
    ends = np.cumsum([len(cls) for cls in rec.class_body], dtype=np.intp)
    return Resolution([np.sort(c) for c in np.split(pos, ends)[:-1]])
