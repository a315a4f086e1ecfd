"""Library pipelines, each run in a child process by run.py.

    python3 perfbench/pipeline.py plain K T SEED
        The plain path on v = 3^K * T points: random_decomposition ->
        compose -> io.serialize -> io.deserialize (and re-serialize) ->
        StsInstance(BlockDesign(...)) -> decompose -> verify_sts ->
        gf3.is_orthogonal against G(v,K).
    python3 perfbench/pipeline.py split K T t SEED
        The split path, the CLI's `construct compose --t t` recipe:
        3^(K-t) composed sub-systems -> SplitDecomposition -> compose_split.

Both print one JSON line {"ok": ..., "checks": {...}, "check_s": ...}.
check_s is the time of the benchmark's own numpy checks, which run.py
subtracts from the operation's wall time.
"""

from __future__ import annotations

import json
import random
import sys
import time

import numpy as np

from trisys import (
    BlockDesign,
    SplitDecomposition,
    StsInstance,
    compose,
    compose_split,
    decompose,
    random_decomposition,
    split_ag,
    td_from_latin,
    verify_sts,
)
from trisys import gf3, io
from trisys.composition import random_latin


def sts_ok(blocks, v: int) -> bool:
    """Independent pair-coverage check: every pair in exactly one block."""
    b = np.sort(np.asarray(blocks, dtype=np.int64).reshape(-1, 3), axis=1)
    if b.shape[0] != v * (v - 1) // 6 or b.min() < 0 or b.max() >= v:
        return False
    codes = np.concatenate([b[:, 0] * v + b[:, 1], b[:, 0] * v + b[:, 2], b[:, 1] * v + b[:, 2]])
    return bool((b[:, 0] < b[:, 1]).all() and (b[:, 1] < b[:, 2]).all()
                and np.unique(codes).size == codes.size)


def layout_ok(blocks, v: int, k: int) -> bool:
    """Independent check of orthogonality to G(v,k): per block, each ternary
    digit of the three point groups sums to 0 mod 3 (and the block has 3
    points, which is orthogonality to the all-one row)."""
    groups = np.asarray(blocks, dtype=np.int64).reshape(-1, 3) // (v // 3**k)
    return all(
        not ((groups // 3**i % 3).sum(axis=1) % 3).any() for i in range(k)
    )


def plain(k: int, T: int, seed: int) -> dict:
    dec = random_decomposition(k, T, random.Random(seed))
    s = compose(dec)
    text = io.serialize(io.sts_record(s, k=k, t=T, kind="decomposition"))
    rec = io.deserialize(text)
    same_bytes = io.serialize(rec) == text
    s2 = StsInstance(BlockDesign(rec.v, rec.blocks))
    round_trip = decompose(s2, k) == dec
    sts_report = verify_sts(s2.design)
    orthogonal = gf3.is_orthogonal(s2.design, gf3.row_space(gf3.generator_gvk(s2.v, k)))
    return _checked(lambda: {
        "decompose_round_trip": round_trip,
        "serialize_round_trip": same_bytes,
        "verify_sts": sts_report.ok,
        "orthogonal": orthogonal,
        "sts_independent": sts_ok(s2.blocks, s2.v),
        "layout_independent": layout_ok(s2.blocks, s2.v, k),
    })


def split(k: int, T: int, t: int, seed: int) -> dict:
    rng = random.Random(seed)
    subs = tuple(compose(random_decomposition(t, T, rng)) for _ in range(3 ** (k - t)))
    _, outer = split_ag(k, t)
    tds = {triple: td_from_latin(random_latin(T, rng)) for triple in outer}
    s = compose_split(SplitDecomposition(k=k, t=t, T=T, sub_systems=subs, tds=tds))
    return _checked(lambda: {
        "sts_independent": sts_ok(s.blocks, s.v),
        "layout_independent": layout_ok(s.blocks, s.v, k),
    })


def _checked(checks) -> dict:
    t0 = time.perf_counter()
    results = checks()
    return {"ok": all(results.values()), "checks": results,
            "check_s": time.perf_counter() - t0}


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "plain":
        result = plain(*(int(a) for a in rest))
    else:
        result = split(*(int(a) for a in rest))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
