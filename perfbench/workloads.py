"""The three benchmark workloads.

Each workload has

- ``setup(seed)``: imports plus input generation, no program work beyond
  building the generic systems and validating S;
- ``run_pass(inp, clock)``: one pass over every input.  Program calls run
  inside ``clock.timed(label)``; the summaries that the checks need are
  taken outside it, so checking never counts as measured time;
- ``check(inp, summaries, reference)``: failure strings for one pass.

Every S is either one of all the S of a case or an orbit representative
(fixed below) moved by a permutation of x1..x(n-1) drawn from the seed.
Permuting those variables relabels the coefficients of the generic system,
so a fresh seed gives different inputs of the same cost; drawing S at random
instead makes one pass cost 3 to 20 times another (see README.md).
"""

from __future__ import annotations

import importlib
import itertools
import random
from dataclasses import dataclass, field

import oracles

# (degrees, nu, S orbit representatives); None takes every S of the case
DELTA_CASES = (
    ((3, 2, 1), 3, None),
    ((4, 1, 1), 3, (((2, 1, 0),), ((1, 0, 2),))),
    ((2, 2, 2), 3, (((3, 0, 0),), ((2, 1, 0),))),
    ((3, 3, 3), 4, (
        ((2, 2, 0), (3, 0, 1), (2, 1, 1), (1, 2, 1), (1, 0, 3), (0, 0, 4)),
        ((3, 1, 0), (1, 3, 0), (3, 0, 1), (2, 0, 2), (1, 1, 2), (0, 1, 3)),
    )),
)

RESIDUAL_CASES = (
    ((6, 6), 9, (((7, 2), (4, 5)), ((6, 3), (5, 4)))),
    ((7, 6), 9, (((7, 2), (4, 5), (3, 6)), ((9, 0), (6, 3), (4, 5)))),
    ((7, 7), 10, (((8, 2), (5, 5), (4, 6)), ((7, 3), (6, 4), (5, 5)))),
    ((3, 2, 2), 3, (((1, 2, 0), (1, 1, 1), (0, 2, 1)), ((3, 0, 0), (2, 1, 0), (0, 1, 2)))),
    # one S: its Delta takes 50 ms, most of it in the all-minors path
    ((3, 2, 1), 3, (((3, 0, 0),),)),
)

# the sweep of `msubres verify --n 2,3 --d-max 4 --nu-mode all-in-range
# --s-mode exhaustive --s-limit 1 --max-rows 11 --jobs 2`
VERIFY_CONFIG = dict(
    n_values=(2, 3), d_max=4, degree_vectors=(), nu_mode="all-in-range",
    s_mode="exhaustive", s_limit=1, seed=None, jobs=2, max_rows=11,
)

POINT_BOUND = 1000  # check points have coordinates in [-POINT_BOUND, POINT_BOUND]


def _import(*names):
    return [importlib.import_module(f"msubres.{n}") for n in names]


def _mono(exp) -> str:
    return "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exp) if e) or "1"


def _key(degrees, nu, S) -> str:
    return f"{','.join(map(str, degrees))}|{nu}|{','.join(_mono(m) for m in S)}"


def _permuted(reps, n, rng):
    # x_n stays in place: grevlex breaks ties on the last variable first, so
    # moving it reorders the deleted matrix's rows, and the all-minors sweep
    # then builds intermediates up to 1.6 times larger on the same Delta
    perms = [p + (n - 1,) for p in itertools.permutations(range(n - 1))]
    for rep in reps:
        p = rng.choice(perms)
        yield tuple(tuple(m[p[j]] for j in range(n)) for m in rep)


def _in_range(hilbert, degrees, nu) -> bool:
    th = hilbert.thresholds(hilbert.DegreeVector(len(degrees), degrees))
    return th.nu_min <= nu <= th.nu_max


@dataclass
class Inputs:
    seed: int
    listing: list = field(default_factory=list)  # what the program receives
    cases: list = field(default_factory=list)


# -- delta --------------------------------------------------------------------


class Delta:
    """Delta only, no verdict: ``subres.subresultant`` per (case, S)."""

    name = "delta"

    def setup(self, seed: int) -> Inputs:
        (subres,) = _import("subres")
        rng = random.Random(seed)
        inp = Inputs(seed=seed)
        for degrees, nu, reps in DELTA_CASES:
            sys_ = subres.build_generic_system(len(degrees), degrees)
            if reps is None:
                sets = subres.enumerate_S(sys_, nu, limit=10**6)
            else:
                sets = [subres.validate_S(sys_, nu, S) for S in _permuted(reps, len(degrees), rng)]
            for mset in sets:
                S = mset.monomials
                point = {nm: rng.randint(-POINT_BOUND, POINT_BOUND) for nm in sys_.universe.names}
                inp.cases.append((degrees, nu, sys_, mset, point))
                inp.listing.append({"degrees": list(degrees), "nu": nu, "S": [list(m) for m in S]})
        return inp

    def run_pass(self, inp: Inputs, clock, first: bool) -> list:
        (subres,) = _import("subres")
        out = []
        for degrees, nu, sys_, mset, point in inp.cases:
            key = _key(degrees, nu, mset.monomials)
            with clock.timed(key):
                res = subres.subresultant(sys_, nu, mset)
            d = res.delta
            summary = {
                "key": key,
                "zero": res.is_zero,
                "multidegrees": dict(sorted(res.multidegrees.items())),
                "content": res.content,
                "sign": res.sign,
                "terms": len(d.terms),
                "fingerprint": hash(frozenset(d.terms.items())),
            }
            if first:
                summary["digest"] = oracles.digest(d.terms, d.universe.names)
                value = oracles.evaluate(d.terms, [point[nm] for nm in d.universe.names])
                mat = oracles.deleted_matrix_at(degrees, nu, mset.monomials, point)
                summary["value_nonzero"] = value != 0
                summary["value_divides_minors"] = value != 0 and all(
                    m % value == 0 for m in oracles.maximal_minors(mat)
                )
            out.append(summary)
        return out

    def ops(self, summaries) -> int:
        return len(summaries)

    def check(self, inp: Inputs, summaries, reference, first_pass) -> list[str]:
        (hilbert,) = _import("hilbert")
        fails = []
        for (degrees, nu, *_), s in zip(inp.cases, summaries):
            tag = s["key"]
            if s["zero"]:
                fails.append(f"{tag}: zero subresultant")
                continue
            if "value_nonzero" in s:
                if not s["value_nonzero"]:
                    fails.append(f"{tag}: Delta vanishes at the check point")
                elif not s["value_divides_minors"]:
                    fails.append(f"{tag}: Delta(pt) does not divide a maximal minor at pt")
            if _in_range(hilbert, degrees, nu):
                dv = hilbert.DegreeVector(len(degrees), degrees)
                expect = {f"c{i + 1}": hilbert.expected_multidegree(dv, nu, i) for i in range(len(degrees))}
                if s["multidegrees"] != expect:
                    fails.append(f"{tag}: multidegrees {s['multidegrees']} != formula {expect}")
        fails += _against_first(summaries, first_pass, ("fingerprint", "multidegrees", "content", "sign"))
        if first_pass is None:
            fails += _against_reference(reference, {s["key"]: s for s in summaries}, inp.seed)
        return fails


# -- residual -----------------------------------------------------------------


class Residual:
    """Points ideal, symbolic residual specialization and one residual
    resultant per S, as ``msubres residual`` does, plus one seeded-rational
    implication-chain check per n = 2 case.  The check needs Delta; on the
    n = 3 cases its all-minors path would take over 5 % of a workload meant
    to bypass that path."""

    name = "residual"

    def setup(self, seed: int) -> Inputs:
        subres, hilbert, residual = _import("subres", "hilbert", "residual")
        rng = random.Random(seed)
        inp = Inputs(seed=seed)
        for degrees, nu, reps in RESIDUAL_CASES:
            dv = hilbert.DegreeVector(len(degrees), degrees)
            sys_ = subres.build_generic_system(len(degrees), degrees)
            sets = [subres.validate_S(sys_, nu, S) for S in _permuted(reps, len(degrees), rng)]
            a, degree = hilbert.a_value(dv, nu), dv.rho - nu + 1
            while True:
                # the residual resultant of S vanishes when the monomials of S
                # are dependent on the points (a zero coordinate is enough), so
                # draw point sets until every S is independent on them and the
                # program's generic-position certificate takes the first draw
                point_seed = rng.randrange(1, 2**31)
                ps = residual.random_points(dv.n, a, point_seed)
                cert = residual.generic_position_certificate(ps, 2 * degree + 2)
                if all(r == e for r, e in cert.values()) and all(
                    oracles.det([[oracles.evaluate({m: 1}, pt) for m in S.monomials] for pt in ps.points])
                    for S in sets
                ):
                    break
            chain_seed = rng.randrange(1, 2**31) if dv.n == 2 else None
            inp.cases.append((degrees, nu, dv, sys_, sets, point_seed, chain_seed))
            inp.listing.append({
                "degrees": list(degrees), "nu": nu, "point_seed": point_seed,
                "chain_seed": chain_seed, "S": [[list(m) for m in s.monomials] for s in sets],
            })
        return inp

    def run_pass(self, inp: Inputs, clock, first: bool) -> list:
        residual, subres, hilbert, polyring = _import("residual", "subres", "hilbert", "polyring")
        out = []
        for degrees, nu, dv, sys_, sets, point_seed, chain_seed in inp.cases:
            case = f"{','.join(map(str, degrees))}|{nu}"
            with clock.timed(f"{case}|ideal", op=False):
                a = hilbert.a_value(dv, nu)
                ideal = residual.points_ideal_with_retries(dv.n, a, dv.rho - nu + 1, seed=point_seed)
                rs = residual.residual_specialize(dv, nu, ideal, mode="symbolic")
            results = []
            for S in sets:
                key = _key(degrees, nu, S.monomials)
                with clock.timed(key):
                    r = residual.residual_resultant(rs, sys_, S)
                p = r.primitive
                results.append({
                    "key": key,
                    "constant": str(r.constant),
                    "multidegrees": dict(sorted(r.multidegrees.items())),
                    "primitive_terms": len(p.terms),
                    "primitive_fingerprint": hash(frozenset(p.terms.items())),
                    "primitive_neg_fingerprint": hash(frozenset((e, -c) for e, c in p.terms.items())),
                })
                if first:
                    results[-1]["primitive_digest"] = oracles.digest(p.terms, p.universe.names)
            chain = None
            if chain_seed is not None:
                with clock.timed(f"{case}|chain", op=False):
                    delta = subres.subresultant(sys_, nu, sets[0]).delta
                    crs = residual.residual_specialize(dv, nu, ideal, mode="seeded-rational", seed=chain_seed)
                    xu = residual.x_universe(dv.n)
                    qs = [
                        polyring.Polynomial(xu, {e[: dv.n]: c for e, c in q.terms.items()})
                        for q in crs.polys
                    ]
                    rec = residual.implication_chain_check(sys_, delta, qs, nu, ideal)
                chain = [rec.delta_nonzero, rec.hilbert_at_nu, rec.hilbert_window]
            out.append({
                "key": case,
                "a": a,
                "points": [list(pt) for pt in ideal.points.points],
                "generators": [dict(g.terms) for g in ideal.generators],
                "generator_digests": [oracles.digest(g.terms, g.universe.names) for g in ideal.generators],
                "ideal_degree": ideal.degree,
                "certificate": {str(t): list(v) for t, v in sorted(ideal.certificate.items())},
                "chain": chain,
                "results": results,
            })
        return out

    def ops(self, summaries) -> int:
        return sum(len(c["results"]) for c in summaries)

    def check(self, inp: Inputs, summaries, reference, first_pass) -> list[str]:
        fails = []
        for (degrees, nu, *_), c in zip(inp.cases, summaries):
            tag = c["key"]
            for pt in c["points"]:
                for g in c["generators"]:
                    if oracles.evaluate(g, pt):
                        fails.append(f"{tag}: an ideal generator does not vanish at {pt}")
            prod = 1
            for d in degrees:
                prod *= d
            expect = {f"c{i + 1}": prod // d - c["a"] for i, d in enumerate(degrees)}
            base = c["results"][0]
            for r in c["results"]:
                if r["multidegrees"] != expect:
                    fails.append(f"{r['key']}: residual multidegrees {r['multidegrees']} != {expect}")
                if r["constant"] in ("0", "0/1"):
                    fails.append(f"{r['key']}: zero residual constant")
                if base["primitive_fingerprint"] not in (
                    r["primitive_fingerprint"], r["primitive_neg_fingerprint"]
                ):
                    fails.append(f"{r['key']}: primitive part differs from the case's first S")
            if c["chain"] not in (None, [True, True, True]):
                fails.append(f"{tag}: implication chain predicates {c['chain']}")
        flat = [r for c in summaries for r in c["results"]]
        first_flat = None if first_pass is None else [r for c in first_pass for r in c["results"]]
        fails += _against_first(flat, first_flat, ("constant", "primitive_fingerprint"))
        if first_pass is None:
            fails += _against_reference(reference, {s["key"]: s for s in flat + summaries}, inp.seed)
        return fails


# -- verify -------------------------------------------------------------------


class Verify:
    """``cli.run_sweep`` end to end, with the sweep's own thread pool."""

    name = "verify"

    def setup(self, seed: int) -> Inputs:
        (cli,) = _import("cli")
        cfg = cli.SweepConfig(**VERIFY_CONFIG)
        inp = Inputs(seed=seed, listing=[{"sweep_config": dict(VERIFY_CONFIG)}])
        inp.cases.append(cfg)
        return inp

    def run_pass(self, inp: Inputs, clock, first: bool) -> list:
        (cli,) = _import("cli")
        run_case = cli._run_case

        def timed_case(cfg, dv, nu):
            # one op per computed case: the interval cli reports as time_ms
            with clock.timed(f"{','.join(map(str, dv.degrees))}|{nu}", nested=True) as t:
                rec = run_case(cfg, dv, nu)
                if rec["skipped"]:
                    t.discard()
            return rec

        cli._run_case = timed_case
        try:
            with clock.timed("sweep", op=False):
                report = cli.run_sweep(inp.cases[0])
        finally:
            cli._run_case = run_case
        return [{"report": report, "body": cli.report_body(report)}]

    def ops(self, summaries) -> int:
        return sum(len(c["records"]) for c in summaries[0]["report"]["cases"])

    def check(self, inp: Inputs, summaries, reference, first_pass) -> list[str]:
        (hilbert,) = _import("hilbert")
        report = summaries[0]["report"]
        fails = list(report["aggregate"]["failures"])
        counts = {k: 0 for k in ("irreducible", "reducible", "inconclusive", "zero", "unit")}
        for case in report["cases"]:
            degrees, nu = tuple(case["degrees"]), case["nu"]
            if case["skipped"]:
                continue
            dv = hilbert.DegreeVector(len(degrees), degrees)
            expect = {f"c{i + 1}": hilbert.expected_multidegree(dv, nu, i) for i in range(len(degrees))}
            for rec in case["records"]:
                counts[rec["verdict"]] += 1
                if not rec["zero"] and rec["multidegrees"] != expect:
                    fails.append(f"{degrees} nu={nu} S={rec['S']}: multidegrees {rec['multidegrees']} != {expect}")
        for k, v in counts.items():
            if report["aggregate"][k] != v:
                fails.append(f"aggregate {k}={report['aggregate'][k]} but records give {v}")
        if first_pass is None:
            fails += _against_reference(reference, report, inp.seed)
        elif summaries[0]["body"] != first_pass[0]["body"]:
            fails.append("report body differs from the first pass")
        return fails


# -- shared checks ------------------------------------------------------------


def _against_first(summaries, first_pass, keys) -> list[str]:
    if first_pass is None:
        return []
    return [
        f"{s['key']}: {k} differs from the first pass"
        for s, f in zip(summaries, first_pass)
        for k in keys
        if s[k] != f[k]
    ]


def _against_reference(reference, got, seed) -> list[str]:
    """Compare with the recorded outputs.  A reference recorded for one seed
    (delta, residual) applies to that seed only; verify's applies to all."""
    if reference is None or reference.get("seed", seed) != seed:
        return []
    return _project_compare(reference["expect"], _jsonable(got), "reference")


def _project_compare(want, got, path) -> list[str]:
    """Fields present in the reference must match; added fields are ignored."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in want.items():
            if k not in got:
                out.append(f"{path}.{k}: missing")
            else:
                out += _project_compare(v, got[k], f"{path}.{k}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (w, g) in enumerate(zip(want, got)):
            out += _project_compare(w, g, f"{path}[{i}]")
        return out
    return [] if want == got else [f"{path}: {got!r} != reference {want!r}"]


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


WORKLOADS = {w.name: w for w in (Delta(), Verify(), Residual())}
