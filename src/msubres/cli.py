"""Command line surface.

Subcommands: `hilbert` prints Hilbert-function tables, `delta` computes a
single subresultant, `verify` runs the sweep that checks nonvanishing,
content, multidegrees, and irreducibility verdicts, and `residual` runs the
residual-resultant construction over a seeded point set.

Exit codes: 0 success, 1 assertion or certificate failure, 2 invalid
input, 3 identically-zero subresultant.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .hilbert import DegreeVector, hilbert_value, thresholds
from .irred import VerdictPreconditionError, irreducibility_verdict
from .polyring import UniverseMismatchError, ZeroPolynomialError, poly_to_doc
from .residual import (
    GenericPositionError,
    ZeroResidualError,
    ideal_to_doc,
    points_ideal_with_retries,
    residual_resultant,
    residual_specialize,
)
from .subres import (
    InvalidMonomialSetError,
    NuOutOfRangeError,
    build_generic_system,
    enumerate_S,
    parse_monomial_set,
    subresultant,
)

SCHEMA = "msubres-report/1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_ZERO = 3

# Delta is one symbolic determinant with this many rows, and its packed
# sweep grows like 2^rows; anything bigger needs --max-rows
DEFAULT_MAX_ROWS = 14
# big matrices get few S samples so one case cannot dominate the sweep
_BIG_ROWS = 12
_BIG_ROWS_S_LIMIT = 2
# kept for its skip records, part of the report body; Delta expands no minors
_MAX_MINORS = 60


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...]
    d_max: int
    degree_vectors: tuple[tuple[int, ...], ...]  # explicit list, or () to generate
    nu_mode: str     # all-in-range | at-bound | above-bound
    s_mode: str      # exhaustive | sample
    s_limit: int
    seed: Optional[int]
    jobs: int
    max_rows: int

    def __post_init__(self):
        if self.nu_mode not in ("all-in-range", "at-bound", "above-bound"):
            raise ValueError(f"unknown nu mode {self.nu_mode!r}")
        if self.s_mode not in ("exhaustive", "sample"):
            raise ValueError(f"unknown S mode {self.s_mode!r}")
        if self.s_limit < 1 or self.jobs < 1 or self.max_rows < 1:
            raise ValueError("all limits must be >= 1")
        if self.s_mode == "sample" and self.seed is None:
            raise ValueError("a seed is mandatory when S is sampled")


def _sweep_degree_vectors(cfg: SweepConfig) -> list[DegreeVector]:
    if cfg.degree_vectors:
        return [DegreeVector(len(d), d) for d in cfg.degree_vectors]
    out = []
    for n in cfg.n_values:
        stack = [()]
        for _ in range(n):
            stack = [
                t + (d,)
                for t in stack
                for d in range(1, (t[-1] if t else cfg.d_max) + 1)
            ]
        out.extend(DegreeVector(n, t) for t in stack)
    return out


def _case_seed(base: Optional[int], dv: DegreeVector, nu: int) -> int:
    mix = hash((base or 0, dv.n, dv.degrees, nu)) & 0x7FFFFFFF
    return mix or 1


def _mono_str(exp: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exp):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _run_case(cfg: SweepConfig, dv: DegreeVector, nu: int) -> dict:
    """All S-records for one (degree vector, nu) pair."""
    start = time.perf_counter()
    th = thresholds(dv)
    above_bound = nu > th.irred_bound
    sys_ = build_generic_system(dv.n, dv.degrees)
    h = hilbert_value(dv, nu)
    rows = math.comb(nu + dv.n - 1, dv.n - 1) - h
    record = {
        "n": dv.n,
        "degrees": list(dv.degrees),
        "nu": nu,
        "position": "above-bound" if above_bound else "at-bound",
        "rows": rows,
        "records": [],
        "skipped": False,
        "failures": [],
    }
    cols = sum(
        math.comb(nu - d + dv.n - 1, dv.n - 1) for d in dv.degrees if nu >= d
    )
    minors = math.comb(cols, rows) if rows <= cols else 0
    if rows > cfg.max_rows or minors > _MAX_MINORS:
        record["skipped"] = True
        record["skip_reason"] = (
            f"{rows} symbolic rows exceeds budget {cfg.max_rows}"
            if rows > cfg.max_rows
            else f"{minors} maximal minors exceeds budget {_MAX_MINORS}"
        )
        record["time_ms"] = 0
        return record
    limit = cfg.s_limit if cfg.s_mode == "sample" else 10**9
    if rows >= _BIG_ROWS:
        limit = min(limit, _BIG_ROWS_S_LIMIT)
    seed = _case_seed(cfg.seed, dv, nu)
    sets = enumerate_S(sys_, nu, limit=limit, seed=seed)
    if cfg.s_mode == "exhaustive" and len(sets) > cfg.s_limit:
        sets = sets[: cfg.s_limit]
    for S in sets:
        res = subresultant(sys_, nu, S)
        entry = {
            "S": [_mono_str(m) for m in S.monomials],
            "zero": res.is_zero,
            "multidegrees": dict(sorted(res.multidegrees.items())),
            "content": res.content,
            "sign": res.sign,
        }
        if res.is_zero:
            entry["verdict"] = "zero"
        elif res.delta.is_constant():
            entry["verdict"] = "unit"
        else:
            v = irreducibility_verdict(res.primitive, seed)
            entry["verdict"] = v.kind
            entry["verdict_reason"] = v.reason
            if v.witness is not None:
                entry["witness"] = str(v.witness)
        record["records"].append(entry)
        if above_bound:
            if res.is_zero:
                record["failures"].append(f"S={entry['S']}: zero above the bound")
            if res.content != 1:
                record["failures"].append(
                    f"S={entry['S']}: content {res.content} above the bound"
                )
            if entry["verdict"] == "reducible":
                record["failures"].append(f"S={entry['S']}: reducible above the bound")
    record["time_ms"] = int(1000 * (time.perf_counter() - start))
    return record


def run_sweep(cfg: SweepConfig) -> dict:
    cases = []
    for dv in _sweep_degree_vectors(cfg):
        th = thresholds(dv)
        if cfg.nu_mode == "at-bound":
            nus = [th.nu_min]
        elif cfg.nu_mode == "above-bound":
            nus = list(range(th.nu_min + 1, th.nu_max + 1))
        else:
            nus = list(range(th.nu_min, th.nu_max + 1))
        cases.extend((dv, nu) for nu in nus)
    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            records = list(pool.map(lambda c: _run_case(cfg, *c), cases))
    else:
        records = [_run_case(cfg, dv, nu) for dv, nu in cases]
    counts = {"irreducible": 0, "reducible": 0, "inconclusive": 0, "zero": 0, "unit": 0}
    failures = []
    skipped = 0
    for rec in records:
        if rec["skipped"]:
            skipped += 1
            continue
        for entry in rec["records"]:
            counts[entry["verdict"]] += 1
        for f in rec["failures"]:
            failures.append(
                f"n={rec['n']} d={tuple(rec['degrees'])} nu={rec['nu']}: {f}"
            )
    return {
        "schema": SCHEMA,
        "command": "verify",
        "config": {
            "n_values": list(cfg.n_values),
            "d_max": cfg.d_max,
            "degree_vectors": [list(d) for d in cfg.degree_vectors],
            "nu_mode": cfg.nu_mode,
            "s_mode": cfg.s_mode,
            "s_limit": cfg.s_limit,
            "seed": cfg.seed,
            "max_rows": cfg.max_rows,
        },
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "cases": records,
        "aggregate": {**counts, "skipped_cases": skipped, "failures": failures},
    }


def report_body(report: dict) -> str:
    """Canonical serialization with the timing fields stripped.

    Two runs with the same seed and config must agree byte for byte on
    this body; timings are the only permitted difference.
    """

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in sorted(obj.items()) if k != "time_ms"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    return json.dumps(strip(report), sort_keys=True, indent=2) + "\n"


# -- rendering --------------------------------------------------------------


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_verify_text(report: dict) -> str:
    lines = []
    for rec in report["cases"]:
        head = f"n={rec['n']} d={tuple(rec['degrees'])} nu={rec['nu']} [{rec['position']}]"
        if rec["skipped"]:
            lines.append(f"{head}  SKIPPED ({rec['skip_reason']})")
            continue
        for entry in rec["records"]:
            lines.append(
                f"{head}  S={{{', '.join(entry['S'])}}}  "
                f"deg={entry['multidegrees']}  content={entry['content']}  "
                f"verdict={entry['verdict']}"
            )
    agg = report["aggregate"]
    lines.append(
        "totals: "
        + "  ".join(f"{k}={agg[k]}" for k in ("irreducible", "reducible", "inconclusive", "zero", "unit"))
        + f"  skipped_cases={agg['skipped_cases']}"
    )
    for f in agg["failures"]:
        lines.append(f"FAIL: {f}")
    return "\n".join(lines) + "\n"


# -- subcommands ------------------------------------------------------------


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed degree list {text!r}")


def _parse_trange(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"malformed t range {text!r}")
    if hi_i < lo_i:
        raise ValueError("empty t range")
    return lo_i, hi_i


def cmd_hilbert(args) -> int:
    degrees = _parse_degrees(args.degrees)
    dv = DegreeVector(args.n, degrees)
    lo, hi = _parse_trange(args.t)
    values = {t: hilbert_value(dv, t) for t in range(lo, hi + 1)}
    if args.format == "structured":
        doc = {
            "schema": SCHEMA,
            "command": "hilbert",
            "n": args.n,
            "degrees": list(degrees),
            "values": {str(t): v for t, v in values.items()},
        }
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(
            "\n".join(f"H({t}) = {v}" for t, v in values.items()) + "\n", args.out
        )
    return EXIT_OK


def cmd_delta(args) -> int:
    degrees = _parse_degrees(args.degrees)
    sys_ = build_generic_system(args.n, degrees)
    S = parse_monomial_set(args.S, sys_, args.nu)
    res = subresultant(sys_, args.nu, S)
    doc = {
        "schema": SCHEMA,
        "command": "delta",
        "n": args.n,
        "degrees": list(degrees),
        "nu": args.nu,
        "S": [_mono_str(m) for m in S.monomials],
        "zero": res.is_zero,
        "in_range": res.in_range,
        "multidegrees": dict(sorted(res.multidegrees.items())),
        "content": res.content,
        "sign": res.sign,
        "delta": poly_to_doc(res.delta),
    }
    if args.format == "structured":
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [
            f"delta = {res.delta}",
            f"multidegrees = {doc['multidegrees']}",
            f"content = {res.content}  sign = {res.sign}  in_range = {res.in_range}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_ZERO if res.is_zero else EXIT_OK


def cmd_verify(args) -> int:
    degree_vectors: tuple[tuple[int, ...], ...] = ()
    if args.degrees:
        degree_vectors = (_parse_degrees(args.degrees),)
    cfg = SweepConfig(
        n_values=tuple(int(x) for x in args.n.split(",")),
        d_max=args.d_max,
        degree_vectors=degree_vectors,
        nu_mode=args.nu_mode,
        s_mode=args.s_mode,
        s_limit=args.s_limit,
        seed=args.seed,
        jobs=args.jobs,
        max_rows=args.max_rows,
    )
    report = run_sweep(cfg)
    if args.format == "structured":
        _emit(report_body(report), args.out)
    else:
        _emit(_render_verify_text(report), args.out)
    return EXIT_FAIL if report["aggregate"]["failures"] else EXIT_OK


def cmd_residual(args) -> int:
    degrees = _parse_degrees(args.degrees)
    dv = DegreeVector(args.n, degrees)
    th = thresholds(dv)
    nu = args.nu
    if not th.nu_min <= nu <= th.nu_max:
        raise ValueError(f"nu={nu} outside admissible range [{th.nu_min}, {th.nu_max}]")
    seed = args.seed if args.seed is not None else 0
    from .hilbert import a_value

    a = a_value(dv, nu)
    ideal = points_ideal_with_retries(dv.n, a, dv.rho - nu + 1, seed=seed)
    rs = residual_specialize(dv, nu, ideal, mode="symbolic")
    sys_ = build_generic_system(dv.n, degrees)
    sets = enumerate_S(sys_, nu, limit=2, seed=seed)
    results = []
    for S in sets:
        results.append(residual_resultant(rs, sys_, S))
    failures = []
    base = results[0].primitive
    for r in results[1:]:
        if not (r.primitive == base or r.primitive == -base):
            failures.append("primitive parts differ across S choices")
    doc = {
        "schema": SCHEMA,
        "command": "residual",
        "n": dv.n,
        "degrees": list(degrees),
        "nu": nu,
        "seed": seed,
        "a": a,
        "ideal": ideal_to_doc(ideal),
        "results": [
            {
                "S": [_mono_str(m) for m in r.monomial_set.monomials],
                "constant": str(r.constant),
                "multidegrees": dict(sorted(r.multidegrees.items())),
                "primitive_terms": len(r.primitive),
            }
            for r in results
        ],
        "primitive": poly_to_doc(base),
        "failures": failures,
    }
    if args.format == "structured":
        _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    else:
        lines = [
            f"points: {[list(p) for p in ideal.points.points]}",
            f"generators: {[str(g) for g in ideal.generators]}",
        ]
        for r in doc["results"]:
            lines.append(
                f"S={{{', '.join(r['S'])}}}  constant={r['constant']}  "
                f"deg={r['multidegrees']}  terms={r['primitive_terms']}"
            )
        lines.append(f"primitive = {base}")
        lines.extend(f"FAIL: {f}" for f in failures)
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_FAIL if failures else EXIT_OK


# -- entry point ------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("text", "structured"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="msubres")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", help="Hilbert-function table of a complete intersection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--t", required=True, help="degree range, e.g. 0..4")
    _add_common(p)
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("delta", help="one subresultant for an explicit monomial set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--S", required=True, help="comma-separated monomials, e.g. 'x1*x2^2,x2^3'")
    _add_common(p)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("verify", help="sweep: nonvanishing, content, degrees, verdicts")
    p.add_argument("--n", default="2,3", help="comma-separated n values")
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--degrees", default=None, help="restrict to one degree vector")
    p.add_argument("--nu-mode", choices=("all-in-range", "at-bound", "above-bound"),
                   default="above-bound")
    p.add_argument("--s-mode", choices=("exhaustive", "sample"), default="sample")
    p.add_argument("--s-limit", type=int, default=5)
    p.add_argument("--max-rows", type=int, default=DEFAULT_MAX_ROWS)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("residual", help="residual resultant over a seeded point set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True)
    p.add_argument("--nu", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_residual)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "s_mode", None) == "sample" and args.seed is None:
        # sampling without a seed is never reproducible
        print("error: --seed is required when sampling", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.fn(args)
    except (GenericPositionError, ZeroResidualError, UniverseMismatchError,
            ZeroPolynomialError, VerdictPreconditionError) as exc:
        # the last three are ValueErrors, but here only an internal fault raises them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (InvalidMonomialSetError, NuOutOfRangeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    raise SystemExit(main())
