"""Traced launcher: run one trisys command with spans around module calls.

Usage (one child process per command, started by run.py):

    python3 perfbench/tracer.py SPANS_FILE RUN_ID cli ARGS...
    python3 perfbench/tracer.py SPANS_FILE RUN_ID lib ARGS...   (ARGS as for pipeline.py)

Before the command runs, every function named in WRAPPED is replaced by a
wrapper at every trisys module attribute bound to it, so a name imported
with ``from ... import`` is traced as well as the defining module's own.
Spans (name, start, end, parent, run id, counts) are kept in memory and
written as JSON lines when the command returns.  Nothing under src/
changes: the wrappers live only in this process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np


def _rref_counts(args, kwargs, result):
    # rref makes whole-matrix int64 copies before it eliminates: np.asarray
    # converts an input that is not already an int64 array, np.mod makes one
    # copy and .copy() another.
    r, pivots = result
    m = args[0] if args else kwargs["m"]
    copies = 2 if getattr(m, "dtype", None) == np.int64 else 3
    return {"cells": int(r.size), "pivots": len(pivots), "bytes_computed": copies * int(r.nbytes)}


def _ndarray_bytes(args, kwargs, result):
    return {"bytes_computed": int(result.nbytes)}


def _solve_counts(args, kwargs, result):
    return {"nodes": int(result.nodes)}


def _pass_a_counts(args, kwargs, result):
    classes, _complete, nodes = result
    return {"classes": len(classes), "nodes": int(nodes)}


def _search_counts(args, kwargs, result):
    found = result.resolution is not None
    return {
        "found": int(found),
        "absent": int(result.exhausted),
        "budget_exceeded": int(result.budget_exceeded),
        "classes_used": result.resolution.n_classes if found else 0,
        "classes_enumerated": int(result.classes_found),
    }


def _serialize_counts(args, kwargs, result):
    # Design files are ASCII JSON, so characters are bytes.
    return {"bytes_written": len(result)}


def _deserialize_counts(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes_read": len(text)}


# The functions behind the per-layer metrics: (module, attribute path,
# counter).  "Class.method" wraps the method; a constructor's span is named
# after its class ("designs.BlockDesign").  Time in a function not listed
# counts as self time of the listed function that called it.
WRAPPED = [
    ("gf3", "rref", _rref_counts),
    ("gf3", "is_orthogonal", None),
    ("designs", "BlockDesign.__init__", None),
    ("designs", "incidence_matrix", _ndarray_bytes),
    ("designs", "verify_sts", None),
    ("designs", "verify_resolution", None),
    ("designs", "p_rank", None),
    ("designs", "dual_space", None),
    ("constructions", "affine_geometry", None),
    ("constructions", "small_sts", None),
    ("composition", "Decomposition.__init__", None),
    ("composition", "compose", None),
    ("composition", "decompose", None),
    ("composition", "compose_split", None),
    ("composition", "random_decomposition", None),
    ("rankfix", "force_exact_rank", None),
    ("rankfix", "dual_canonicalize", None),
    ("rankfix", "perm_intersection", None),
    ("exact_cover", "solve_exact_cover", _solve_counts),
    ("exact_cover", "ExactCover.solve", _solve_counts),
    ("resolution", "enumerate_parallel_classes", _pass_a_counts),
    ("resolution", "search_resolution", _search_counts),
    ("io", "serialize", _serialize_counts),
    ("io", "deserialize", _deserialize_counts),
    ("cli", "main", None),
]


class Recorder:
    """In-memory span list; a span is [name, start, end, parent, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return traced

    def span(self, name, start, end):
        self.spans.append([name, start, end, -1, None])

    def write(self, path: Path, run_id: str) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent, "run": run_id}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def install(recorder: Recorder, extra_modules=()) -> list[str]:
    """Wrap every WRAPPED function in place; returns the names not found."""
    modules = [m for n, m in sys.modules.items() if n == "trisys" or n.startswith("trisys.")]
    modules += list(extra_modules)
    missing = []
    for mod_name, path, counter in WRAPPED:
        mod = sys.modules.get(f"trisys.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = owner.__dict__.get(attr) if owner is not None else None
        if orig is None:
            missing.append(f"{mod_name}.{path}")
            continue
        name = f"{mod_name}.{owner_name if attr == '__init__' else path}"
        wrapped = recorder.wrap(name, orig, counter)
        if owner_name:
            setattr(owner, attr, wrapped)
            continue
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
    return missing


def main(argv: list[str]) -> int:
    spans_file, run_id, kind, *rest = argv
    import trisys.cli

    extra = []
    if kind == "lib":
        import pipeline

        extra.append(pipeline)
    recorder = Recorder()
    t0 = time.perf_counter()
    missing = install(recorder, extra)
    for name in missing:
        print(f"tracer: {name} not found, not traced", file=sys.stderr)
    recorder.span("trace.setup", t0, time.perf_counter())
    try:
        if kind == "cli":
            return trisys.cli.main(rest)
        return recorder.wrap("pipeline.main", pipeline.main, None)(rest)
    finally:
        recorder.write(Path(spans_file), run_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
