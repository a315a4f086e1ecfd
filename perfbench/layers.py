"""Turn the spans written by tracer.py into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
child spans.  One process writes one run id; its spans' parent fields are
positions in that process's own span list.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

EPS = 1e-9


class Summary:
    """Totals over the spans of one or more processes."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # run id -> time in the command (cli.main or the pipeline) plus
        # installing the tracer: what is not start-up or exit
        self.accounted_s: dict[str, float] = defaultdict(float)
        self.problems: list[str] = []
        self.n_spans = 0

    def add_process(self, run_id: str, spans: list[dict]) -> None:
        child_sum = [0.0] * len(spans)
        for i, s in enumerate(spans):
            p = s["parent"]
            if p < 0:
                continue
            parent = spans[p]
            if not (p < i and parent["start"] <= s["start"] <= s["end"] <= parent["end"]):
                self.problems.append(f"{run_id}: span {i} {s['name']} not nested in {p}")
            child_sum[p] += s["end"] - s["start"]
        self.n_spans += len(spans)
        for i, s in enumerate(spans):
            name, dur = s["name"], s["end"] - s["start"]
            own = dur - child_sum[i]
            if own < -EPS:
                self.problems.append(f"{run_id}: span {i} {name} self time {own:.3g} < 0")
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += own
            for key, n in (s.get("counts") or {}).items():
                self.counts[f"{name}.{key}"] += n
            if name == "exact_cover.solve_exact_cover" and s["parent"] >= 0 \
                    and spans[s["parent"]]["name"] == "resolution.search_resolution":
                self.calls["resolution.pass_b"] += 1
                self.total["resolution.pass_b"] += dur
                self.counts["resolution.pass_b.nodes"] += (s.get("counts") or {}).get("nodes", 0)
            if name in ("cli.main", "pipeline.main", "trace.setup"):
                self.accounted_s[run_id] += dur

    def exact_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly when the same inputs are traced."""
        return {
            "gf3.rref.pivots": self.counts["gf3.rref.pivots"],
            "gf3.rref.cells": self.counts["gf3.rref.cells"],
            "exact_cover.nodes": self.counts["exact_cover.ExactCover.solve.nodes"],
            "designs.p_rank.calls": self.calls["designs.p_rank"],
        }


def load(path: Path) -> dict[str, list[dict]]:
    """Spans of a file, grouped by run id (one run id per process)."""
    by_run: dict[str, list[dict]] = defaultdict(list)
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                by_run[rec["run"]].append(rec)
    return by_run


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: Summary, n_ops: int, walls: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced operation.

    `walls` maps each traced process's run id to its wall time as the parent
    measured it; start-up is that wall time minus the time spent in the
    command and in installing the tracer.
    """
    st, calls, total, c = s.self_time, s.calls, s.total, s.counts
    solve_s = total["exact_cover.ExactCover.solve"]
    nodes = c["exact_cover.ExactCover.solve.nodes"]
    per_op = {
        "gf3.rref.self_s": st["gf3.rref"],
        "gf3.rref.calls": calls["gf3.rref"],
        "gf3.rref.cells": c["gf3.rref.cells"],
        "gf3.rref.pivots": c["gf3.rref.pivots"],
        "gf3.rref.bytes_computed": c["gf3.rref.bytes_computed"],
        "gf3.is_orthogonal.self_s": st["gf3.is_orthogonal"],
        "designs.p_rank.calls": calls["designs.p_rank"],
        "designs.dual_space.calls": calls["designs.dual_space"],
        "designs.incidence_matrix.self_s": st["designs.incidence_matrix"],
        "designs.incidence_matrix.bytes_computed": c["designs.incidence_matrix.bytes_computed"],
        "designs.verify_sts.self_s": st["designs.verify_sts"],
        "designs.BlockDesign.self_s": st["designs.BlockDesign"],
        "designs.BlockDesign.calls": calls["designs.BlockDesign"],
        "designs.verify_resolution.self_s": st["designs.verify_resolution"],
        "composition.compose.self_s": st["composition.compose"],
        "composition.decompose.self_s": st["composition.decompose"],
        "composition.compose_split.self_s": st["composition.compose_split"],
        "composition.random_decomposition.self_s": st["composition.random_decomposition"],
        "composition.Decomposition.self_s": st["composition.Decomposition"],
        "constructions.affine_geometry.calls": calls["constructions.affine_geometry"],
        "constructions.affine_geometry.self_s": st["constructions.affine_geometry"],
        "constructions.small_sts.self_s": st["constructions.small_sts"],
        "rankfix.force_exact_rank.self_s": st["rankfix.force_exact_rank"],
        "rankfix.dual_canonicalize.self_s": st["rankfix.dual_canonicalize"],
        "rankfix.perm_intersection.self_s": st["rankfix.perm_intersection"],
        "exact_cover.build_s": total["exact_cover.solve_exact_cover"] - solve_s,
        "exact_cover.solve_s": solve_s,
        "exact_cover.nodes": nodes,
        "resolution.pass_a.s": total["resolution.enumerate_parallel_classes"],
        "resolution.pass_a.nodes": c["resolution.enumerate_parallel_classes.nodes"],
        "resolution.pass_a.classes": c["resolution.enumerate_parallel_classes.classes"],
        "resolution.pass_b.s": total["resolution.pass_b"],
        "resolution.pass_b.nodes": c["resolution.pass_b.nodes"],
        "resolution.found": c["resolution.search_resolution.found"],
        "resolution.absent": c["resolution.search_resolution.absent"],
        "resolution.budget_exceeded": c["resolution.search_resolution.budget_exceeded"],
        "io.serialize.self_s": st["io.serialize"],
        "io.deserialize.self_s": st["io.deserialize"],
        "io.bytes_written": c["io.serialize.bytes_written"],
        "io.bytes_read": c["io.deserialize.bytes_read"],
        "trace.spans": s.n_spans,
    }
    out = {name: value / n_ops for name, value in per_op.items()}
    out["exact_cover.us_per_node"] = _ratio(solve_s * 1e6, nodes)
    out["resolution.classes_used_ratio"] = _ratio(
        c["resolution.search_resolution.classes_used"],
        c["resolution.search_resolution.classes_enumerated"],
    )
    startups = [wall - s.accounted_s[run] for run, wall in walls.items()]
    out["cli.startup_s"] = _ratio(sum(startups), len(startups))
    return out
