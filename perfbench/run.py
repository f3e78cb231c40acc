"""Benchmark for msubres: ``python3 perfbench/run.py --workload delta``.

Run from the root of a source checkout; the package is imported from
``src/``.  Options: ``--workload {delta,verify,residual}``, ``--seed N``
(inputs are a function of the seed), ``--seconds T`` (measured time of an
untraced run), ``--trace {0,1}``.

``--trace 0`` runs whole passes over the workload's inputs until the
measured time reaches T and reports the end-to-end metrics; each input's
time is its median ratio to a host speed probe (hostspeed.py) over the
passes.  ``--trace 1`` alternates untraced passes and
passes with spans around the msubres functions, five of each, and reports
the per-layer metrics of the fastest traced pass.  msubres is imported
afresh and the inputs generated again before every pass; that is the set-up
time.  Outputs are checked on every pass.  The last line of stdout is
one JSON object; the full result, with the environment and the exact input
list, goes to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

TRACE_PAIRS = 5  # a traced run alternates untraced and traced passes
MODULES = ("polyring", "hilbert", "linalg", "subres", "residual", "irred", "cli")

# spans: (module, function) -> span name
FUNCTION_SPANS = {
    ("polyring", "divide_qq"): "polyring.divide_qq",
    ("polyring", "gcd_multivariate"): "polyring.gcd_multivariate",
    ("linalg", "gcd_of_maximal_minors"): "linalg.gcd_of_maximal_minors",
    ("linalg", "rank_over_Q"): "linalg.rank_over_Q",
    ("subres", "subresultant"): "subres.subresultant",
    ("irred", "irreducibility_verdict"): "irred.irreducibility_verdict",
    ("irred", "power_form"): "irred.power_form",
    ("irred", "degree_pattern"): "irred.degree_pattern",
    ("residual", "points_ideal_with_retries"): "residual.points_ideal_with_retries",
    ("residual", "residual_specialize"): "residual.residual_specialize",
    ("residual", "residual_resultant"): "residual.residual_resultant",
    ("residual", "implication_chain_check"): "residual.implication_chain_check",
    ("cli", "run_sweep"): "cli.run_sweep",
    # the per-case body of run_sweep, which runs on the sweep's worker threads
    ("cli", "_run_case"): "cli.run_case",
    **{("hilbert", f): "hilbert" for f in (
        "hilbert_value", "a_value", "thresholds", "expected_multidegree", "ses_identity_check",
    )},
}
POLYNOMIAL_SPANS = {
    "__mul__": "polyring.mul", "__rmul__": "polyring.mul",
    "__add__": "polyring.add", "__radd__": "polyring.add",
    "specialize": "polyring.specialize",
    "content_and_primitive": "polyring.content_and_primitive",
}
COUNTERS = (
    "subres.delta_terms", "subres.zero_results", "linalg.minors_attempted",
    "irred.verdicts.irreducible", "irred.verdicts.reducible", "irred.verdicts.inconclusive",
    "cli.cases_computed", "cli.cases_skipped", "residual.primitive_terms",
)


class Clock:
    """Measured time of a pass: the sum of its ``timed`` segments.

    Every segment is paired with a host speed probe timed just before it, and
    its time is kept as a ratio to the probe (see hostspeed.py)."""

    class _Segment:
        discarded = False

        def discard(self):
            self.discarded = True

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0  # CPU time of the calling thread inside the segments
        self.segments: dict[str, float] = {}  # label -> wall over probe seconds
        self.ops: list[tuple[str, float]] = []  # (input label, op over probe seconds)
        self._probe = math.nan

    @contextlib.contextmanager
    def timed(self, label: str, op: bool = True, nested: bool = False):
        """Time a segment of work on one input.  An ``op`` segment also gives
        an op time.  A ``nested`` segment lies inside another (possibly on
        another thread): it gives an op time, paired with the enclosing
        segment's probe, but adds no measured time.

        A nested op is timed in CPU time of its thread: on a sweep thread,
        wall time would mostly measure how the two threads share the
        interpreter lock."""
        if not nested:
            self._probe = hostspeed.probe()
        seg = Clock._Segment()
        w0, c0 = time.perf_counter(), time.thread_time()
        yield seg
        dw, dc = time.perf_counter() - w0, time.thread_time() - c0
        if not nested:
            self.wall += dw
            self.cpu += dc
            self.segments[label] = self.segments.get(label, 0.0) + dw / self._probe
        if op and not seg.discarded:
            self.ops.append((label, (dc if nested else dw) / self._probe))


def median_of(clocks, field: str) -> dict[str, float]:
    """Per label, the median over the passes."""
    samples: dict[str, list[float]] = {}
    for c in clocks:
        items = c.segments.items() if field == "segments" else c.ops
        for label, r in items:
            samples.setdefault(label, []).append(r)
    return {label: statistics.median(v) for label, v in samples.items()}


def _on_subresultant(tracer, args, res):
    tracer.count("subres.delta_terms", len(res.delta.terms))
    tracer.count("subres.zero_results", int(res.is_zero))


def _on_minors(tracer, args, res):
    m = args[0]
    tracer.count("linalg.minors_attempted", math.comb(m.ncols, m.nrows))


def _on_verdict(tracer, args, verdict):
    tracer.count(f"irred.verdicts.{verdict.kind}")


def _on_sweep(tracer, args, report):
    skipped = report["aggregate"]["skipped_cases"]
    tracer.count("cli.cases_computed", len(report["cases"]) - skipped)
    tracer.count("cli.cases_skipped", skipped)


def _on_residual(tracer, args, res):
    tracer.count("residual.primitive_terms", len(res.primitive.terms))


HOOKS = {
    "subres.subresultant": _on_subresultant,
    "linalg.gcd_of_maximal_minors": _on_minors,
    "irred.irreducibility_verdict": _on_verdict,
    "cli.run_sweep": _on_sweep,
    "residual.residual_resultant": _on_residual,
}


def install(tracer):
    mods = {m: importlib.import_module(f"msubres.{m}") for m in MODULES}
    for (owner, attr), name in FUNCTION_SPANS.items():
        others = [mods[owner]] + [mods[m] for m in MODULES if m != owner]
        tracer.patch_everywhere(others, attr, name, HOOKS.get(name))
    for attr, name in POLYNOMIAL_SPANS.items():
        tracer.patch(mods["polyring"].Polynomial, attr, name)


def per_layer_names() -> list[str]:
    spans = sorted(set(FUNCTION_SPANS.values()) | set(POLYNOMIAL_SPANS.values()))
    names = [f"{s}.{k}" for s in spans for k in ("self_s", "calls")]
    names += [f"{m}.self_s" for m in MODULES if m != "hilbert"]
    names += list(COUNTERS)
    names += ["bench.self_s", "trace.run_s", "trace.unaccounted_s", "trace_overhead_s",
              "irreducible_share", "failed_share"]
    return names


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def fresh_setup(workload, seed: int):
    """Import msubres anew and generate the inputs; returns (inputs, seconds)."""
    for name in [m for m in sys.modules if m == "msubres" or m.startswith("msubres.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    for m in MODULES:
        importlib.import_module(f"msubres.{m}")
    inputs = workload.setup(seed)
    return inputs, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "msubres" / "__init__.py").is_file():
        print(f"msubres sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text()).get(args.workload)

    # set-up is repeated before every pass, each time paired with a probe
    # just before it; every set-up gives the same inputs
    probe = hostspeed.probe()
    inputs, dt = fresh_setup(workload, args.seed)
    setup_times = [(dt, probe)]

    passes: list[Clock] = []
    traced: list[tuple[Clock, object]] = []  # (clock, tracer) per traced pass
    ops_per_pass = 0
    failures: list[str] = []
    first = None
    error = None
    try:
        while True:
            if passes or traced:
                probe = hostspeed.probe()
                inputs, dt = fresh_setup(workload, args.seed)
                setup_times.append((dt, probe))
            tracing = args.trace == 1 and len(passes) > len(traced)
            clock = Clock()
            tracer = None
            if tracing:
                tracer = Tracer()
                install(tracer)
            try:
                summaries = workload.run_pass(inputs, clock, first is None)
            finally:
                if tracer is not None:
                    tracer.unpatch()
            failures += workload.check(inputs, summaries, reference, first)
            if first is None:
                first = summaries
                ops_per_pass = workload.ops(summaries)
            if tracing:
                traced.append((clock, tracer))
            else:
                passes.append(clock)
            if args.trace == 1:
                if len(traced) == TRACE_PAIRS:
                    break
            elif sum(c.wall for c in passes) >= args.seconds:
                break
    except Exception:  # a program error ends the run and is reported as a failure
        error = traceback.format_exc()
        print(error, file=sys.stderr)

    attempted = ops_per_pass * (len(passes) + len(traced))
    failed = min(len(failures), attempted)
    if error is not None:
        failed += 1
        attempted += 1
    correct = error is None and not failures

    # The host runs at a few speeds that switch every few tenths of a second,
    # and a slow spell can outlast the run.  A segment and the probe just
    # before it almost always run at the same speed, so each input's time is
    # its median ratio to the probe over the passes, in seconds of the probe
    # on the reference host.  run_s adds up the segments of a pass;
    # percentiles are taken across inputs.
    ref = hostspeed.REFERENCE_S
    ratios = median_of(passes, "ops")
    segments = median_of(passes, "segments")
    latencies = sorted(r * ref for r in ratios.values())
    nan = float("nan")
    run_s = sum(segments.values()) * ref if passes else nan
    summary = {
        "run_s": (run_s, "s"),
        "ops_per_s": (ops_per_pass / run_s if passes else nan, "1/s"),
        "op_p50_s": (statistics.median(latencies) if latencies else nan, "s"),
        "op_tail_s": (latencies[-1] if latencies else nan, "s"),
        "setup_s": (statistics.median(dt / p for dt, p in setup_times) * ref, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "failed_share": failed / attempted if attempted else 0.0,
        "passes": len(passes),
        "op_inputs": len(latencies),
        "op_s": {k: r * ref for k, r in sorted(ratios.items(), key=lambda kv: kv[1])},
        "segment_s": {k: r * ref for k, r in segments.items()},
        "pass_wall_s": [c.wall for c in passes],
        "fastest_pass_wall_s": min((c.wall for c in passes), default=nan),
        "setup_wall_and_probe_s": setup_times,
        "op_ratios": [c.ops for c in passes],
    }
    if args.workload == "verify" and first is not None:
        agg = first[0]["report"]["aggregate"]
        records = sum(agg[k] for k in ("irreducible", "reducible", "inconclusive", "zero", "unit"))
        extra["irreducible_share"] = agg["irreducible"] / records if records else 0.0

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in summary.items()}
    elif traced:
        clock, tracer = min(traced, key=lambda ct: ct[0].wall)
        metrics = layer_metrics(tracer, clock, extra)
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    else:
        metrics = {}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        **result,
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": inputs.listing,
        "end_to_end": {k: v for k, (v, _) in summary.items()},
        **extra,
        "failures": failures[:50],
        "error": error,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(
        f"{args.workload} seed={args.seed}: {len(passes)} passes, run_s={run_s:.3f}, "
        f"{len(traced)} traced, failed {failed}/{attempted}",
        file=sys.stderr,
    )
    for f in failures[:10]:
        print("FAIL:", f, file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, clock, extra) -> dict:
    stats = tracer.stats()
    out: dict[str, float] = {}
    for span in sorted(set(FUNCTION_SPANS.values()) | set(POLYNOMIAL_SPANS.values())):
        calls, self_s = stats.get(span, (0, 0.0))
        out[f"{span}.self_s"] = self_s
        out[f"{span}.calls"] = calls
    for m in MODULES:
        if m != "hilbert":
            out[f"{m}.self_s"] = sum(s for name, (_, s) in stats.items() if name.startswith(m + "."))
    for c in COUNTERS:
        out[c] = tracer.counters.get(c, 0)
    spans_total = sum(s for _, s in stats.values())
    out["bench.self_s"] = clock.cpu - tracer.origin_self()
    out["trace.run_s"] = clock.wall
    out["trace.unaccounted_s"] = clock.wall - spans_total - out["bench.self_s"]
    out["trace_overhead_s"] = clock.wall - extra["fastest_pass_wall_s"]
    out["irreducible_share"] = extra.get("irreducible_share", 0.0)
    out["failed_share"] = extra["failed_share"]
    return {k: {"value": out[k], "unit": _unit(k)} for k in per_layer_names()}


if __name__ == "__main__":
    sys.exit(main())
