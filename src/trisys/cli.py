"""Command-line front end: construct, verify, and bound.

Exit codes: 0 success, 1 verification failure, 2 bad parameters,
3 construction/search failure (budget), 4 I/O failure.  Commands return
0, 1 or 3 themselves; only `main` maps exceptions to codes: an OSError
exits 4, and a ValueError (a bad option or a malformed file) or a
MemoryError (an input too large for the memory at hand) exits 2, each with
one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import gf3
from .bounds import bound_rcw, bound_thm1, bound_thm1prime, bound_thm2
from .composition import compose, random_decomposition
from .constructions import affine_geometry, small_sts
from .designs import (
    BlockDesign,
    StsInstance,
    VerificationReport,
    p_rank,
    verify_resolution,
    verify_sts,
    verify_td,
)
from .io import (
    read_design,
    resolution_from_record,
    resolution_record,
    sts_record,
    write_design,
)
from .rankfix import force_exact_rank
from .resolution import SearchLimits, search_resolution

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_SEARCH_FAILED = 3
EXIT_IO = 4


def _summary(s: StsInstance, rank3: int, resolution_attached: bool) -> str:
    res = "attached" if resolution_attached else "none"
    return f"v={s.v} blocks={len(s.array)} rank3={rank3} resolution={res}"


def _cmd_construct(args) -> int:
    out = args.out
    if args.what == "ag":
        if args.k < 1:
            raise ValueError("--k must be >= 1")
        ag = affine_geometry(args.k)
        out = out or f"ag-k{args.k}"
        write_design(f"{out}.sts.jsonl", sts_record(ag.sts, k=args.k))
        write_design(
            f"{out}.resolution.jsonl",
            resolution_record(ag.sts.design, ag.standard_resolution),
        )
        print(_summary(ag.sts, p_rank(ag.sts.design, 3), True))
    elif args.what == "sts":
        if args.T < 1 or args.T % 6 not in (1, 3):
            raise ValueError("--T must be 1 or 3 (mod 6)")
        s = small_sts(args.T)
        out = out or f"sts-T{args.T}"
        write_design(f"{out}.sts.jsonl", sts_record(s, t=args.T))
        print(_summary(s, p_rank(s.design, 3), False))
    elif args.what == "compose":
        if args.k < 1 or args.T < 1 or args.T % 6 not in (1, 3):
            raise ValueError("--k must be >= 1 and --T admissible (1 or 3 mod 6)")
        if not 0 <= args.t <= args.k:
            raise ValueError("--t must satisfy 0 <= t <= k")
        s = compose(
            random_decomposition(args.k, args.T, random.Random(args.seed), args.t)
        )
        out = out or (
            f"compose-k{args.k}-T{args.T}"
            + (f"-t{args.t}" if args.t else "")
            + f"-seed{args.seed}"
        )
        write_design(f"{out}.sts.jsonl", sts_record(s, k=args.k, t=args.T, kind="decomposition"))
        print(_summary(s, p_rank(s.design, 3), False))
    elif args.what == "force-rank":
        rec = read_design(args.infile)
        if rec.kind != "decomposition" or rec.k is None:
            raise ValueError("force-rank needs a decomposition file (with k)")
        k, s = rec.k, StsInstance(BlockDesign(rec.v, rec.body))
        del rec
        forced = force_exact_rank(s, k)
        out = out or "forced"
        write_design(f"{out}.sts.jsonl", sts_record(forced, k=k))
        # force_exact_rank proved dual = row space of G(v,k), of dimension
        # k+1, so the rank is v-k-1 by rank-nullity.
        print(_summary(forced, forced.v - k - 1, False))
    elif args.what == "resolve":
        rec = read_design(args.infile)
        if rec.kind not in ("sts", "decomposition"):
            raise ValueError("resolve needs an sts (or decomposition) file")
        s = StsInstance(BlockDesign(rec.v, rec.body))
        del rec
        limits = SearchLimits(node_budget=args.node_budget, max_classes=args.max_classes)
        outcome = search_resolution(s.design, limits)
        if outcome.resolution is None:
            reason = "budget exceeded" if outcome.budget_exceeded else "no resolution exists"
            print(
                f"resolution search failed: {reason} after {outcome.nodes_used} nodes, "
                f"{outcome.classes_found} parallel classes",
                file=sys.stderr,
            )
            return EXIT_SEARCH_FAILED
        out = out or "resolved"
        write_design(f"{out}.resolution.jsonl", resolution_record(s.design, outcome.resolution))
        print(_summary(s, p_rank(s.design, 3), True))
    return EXIT_OK


def _entry(check: str, rep: VerificationReport) -> dict:
    """A report as its line in `verify`'s JSON: a failed check names its
    first violation, when it has one."""
    entry = {"check": check, "ok": rep.ok}
    if rep.violations:
        entry["detail"] = rep.violations[0]
    return entry


def _print_report(checks: list[dict]) -> int:
    ok = all(c["ok"] for c in checks)
    print(json.dumps({"ok": ok, "checks": checks}, separators=(",", ":")))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    rec = read_design(args.file)
    try:
        design = BlockDesign(rec.v, rec.body)
        if rec.kind == "resolution":
            res = resolution_from_record(rec, design)
            checks = [_entry("resolution", verify_resolution(design, res))]
        elif rec.kind != "td":
            checks = [_entry("sts-axioms", verify_sts(design))]
        elif rec.groups is None:
            checks = [_entry("td-axioms", VerificationReport(False, ("missing groups record",)))]
        else:
            checks = [_entry("td-axioms", verify_td(design, rec.groups))]
    except ValueError as exc:
        # Malformed designs (duplicate or out-of-range blocks) are failed
        # checks with a named violation, not parameter errors.
        return _print_report([_entry("well-formed", VerificationReport(False, (str(exc),)))])
    del rec  # only the design is needed from here on

    if args.resolution:
        rrec = read_design(args.resolution)
        try:
            rep = verify_resolution(design, resolution_from_record(rrec, design))
        except ValueError as exc:
            rep = VerificationReport(False, (str(exc),))
        checks.append(_entry("resolution", rep))

    if args.orthogonal_to:
        try:
            v_str, k_str = args.orthogonal_to.split(",")
            v_target, k_target = int(v_str), int(k_str)
        except ValueError:
            raise ValueError("--orthogonal-to expects v,k")
        if v_target != design.v:
            rep = VerificationReport(False, (f"file has v={design.v}, expected {v_target}",))
        else:
            code = gf3.row_space(gf3.generator_gvk(v_target, k_target))
            rep = VerificationReport(gf3.is_orthogonal(design, code))
        checks.append(_entry("orthogonal", rep))

    if args.rank is not None:
        r = p_rank(design, args.rank)
        checks.append({"check": f"rank-{args.rank}", "ok": True, "value": r})

    return _print_report(checks)


def _cmd_bound(args) -> int:
    if args.formula == "rcw":
        rep = bound_rcw(args.T)
    elif args.formula == "thm1":
        rep = bound_thm1(args.T, args.k, args.n1, args.n3)
    elif args.formula == "thm1prime":
        rep = bound_thm1prime(args.T, args.k, args.n1, args.n3)
    else:
        if args.n1hat is None:
            raise ValueError("thm2 requires --n1hat")
        rep = bound_thm2(args.T, args.k, args.n1hat, args.n3)
    note = "" if rep.hypothesis_ok else f" ({rep.hypothesis_note})"
    # Built in full before printing: str() of an int past 4,300 digits raises.
    lines = [
        f"formula: {rep.formula_id}",
        *(f"{name}: {value}" for name, value in rep.inputs.items()),
        f"numerator: {rep.numerator}",
        f"denominator: {rep.denominator}",
        f"floor: {rep.floor_value}",
        f"digits: {rep.decimal_digits}",
        f"hypothesis: {'ok' if rep.hypothesis_ok else 'violated'}{note}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisys",
        description="Construct, verify, and bound triple systems of prescribed 3-rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build designs and write design files")
    consub = con.add_subparsers(dest="what", required=True)
    p_ag = consub.add_parser("ag", help="affine triple system with its resolution")
    p_ag.add_argument("--k", type=int, required=True)
    p_ag.add_argument("--out")
    p_sts = consub.add_parser("sts", help="stock triple system of order T")
    p_sts.add_argument("--T", type=int, required=True)
    p_sts.add_argument("--out")
    p_comp = consub.add_parser("compose", help="grouped composition on 3^k * T points")
    p_comp.add_argument("--k", type=int, required=True)
    p_comp.add_argument("--T", type=int, required=True)
    p_comp.add_argument("--t", type=int, default=0, help="coarse split level")
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--out")
    p_force = consub.add_parser("force-rank", help="force 3-rank v-k-1 exactly")
    p_force.add_argument("--in", dest="infile", required=True)
    p_force.add_argument("--out")
    p_res = consub.add_parser("resolve", help="search a resolution by exact cover")
    p_res.add_argument("--in", dest="infile", required=True)
    p_res.add_argument("--out")
    p_res.add_argument("--node-budget", type=int, default=SearchLimits.node_budget)
    p_res.add_argument("--max-classes", type=int, default=SearchLimits.max_classes)

    ver = sub.add_parser("verify", help="check axioms, ranks, orthogonality")
    ver.add_argument("file")
    ver.add_argument("--resolution")
    ver.add_argument("--orthogonal-to", metavar="V,K")
    ver.add_argument("--rank", type=int, metavar="P")

    bnd = sub.add_parser("bound", help="evaluate a counting bound exactly")
    bnd.add_argument("formula", choices=["thm1", "thm2", "thm1prime", "rcw"])
    bnd.add_argument("--T", type=int, required=True)
    bnd.add_argument("--k", type=int, default=1)
    bnd.add_argument("--n1", type=int, default=1)
    bnd.add_argument("--n3", type=int, default=1)
    bnd.add_argument("--n1hat", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "construct":
            return _cmd_construct(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bound(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
