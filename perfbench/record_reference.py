"""Write perfbench/reference.json: the outputs of one pass of every workload.

Usage, from the root of a checkout: ``python3 perfbench/record_reference.py``.

The reference holds only report fields that exist at the commit it was
recorded from, plus digests of the canonical forms of Delta, the residual
primitive parts and the ideal generators.  ``run.py`` compares the fields the
reference has and ignores fields added later.  The delta and residual
entries apply to seed REFERENCE_SEED; the verify sweep does not depend on
the seed, so its entry applies to every seed.
"""

from __future__ import annotations

import json
import sys

from run import REFERENCE, SRC, Clock, fresh_setup
from workloads import WORKLOADS

REFERENCE_SEED = 0
FIELDS = {
    "delta": ("zero", "multidegrees", "content", "sign", "terms", "digest"),
    "residual": (
        "constant", "multidegrees", "primitive_terms", "primitive_digest",
        "a", "points", "ideal_degree", "certificate", "chain", "generator_digests",
    ),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    ref = {}
    for name, workload in WORKLOADS.items():
        inputs, _ = fresh_setup(workload, REFERENCE_SEED)
        summaries = workload.run_pass(inputs, Clock(), True)
        if name == "verify":
            import msubres.cli as cli

            body = json.loads(cli.report_body(summaries[0]["report"]))
            ref[name] = {"expect": {"cases": body["cases"], "aggregate": body["aggregate"]}}
            continue
        items = summaries
        if name == "residual":
            items = [r for case in summaries for r in case["results"]] + summaries
        ref[name] = {
            "seed": REFERENCE_SEED,
            "expect": {s["key"]: {f: s[f] for f in FIELDS[name] if f in s} for s in items},
        }
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
