"""Write bench/reference/ from the outputs of the current tree.

    python3 bench/make_reference.py [assemble|certify|sweep|verify ...]

The references pin the outputs of the commit that defined the
benchmark.  Regenerate one only in a change that means to alter that
workload's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import weldkit as wk  # noqa: E402
import weldkit.cli  # noqa: E402,F401

import workloads as w  # noqa: E402


def _pass(name: str, seed: int = 0):
    workload = w.WORKLOADS[name]
    return workload.run(wk, workload.inputs(wk, seed))


def assemble():
    outcome = _pass("assemble")
    return {label: w.code_digest(code) for label, code in outcome.outputs.items()}


def certify():
    outcome = _pass("certify")
    return {
        "exact": {
            label: {"barrier": r.barrier, "witness": w.walk_digest(r.witness)}
            for label, r, _ in outcome.outputs["exact"]
        },
        "bounds": {
            label: {
                "bound": report.bound.barrier,
                "barrier": report.exact.barrier,
                "witness": w.walk_digest(report.exact.witness),
            }
            for label, report, _ in outcome.outputs["bounds"]
        },
    }


def sweep():
    return _pass("sweep").outputs["rows"]


def verify():
    digests = {}
    for seed in range(w.VERIFY_SEEDS):
        report = _pass("verify", seed).outputs["report"]
        if not report.ok:
            raise SystemExit(f"verify seed {seed} fails:\n{report.summary()}")
        digests[str(seed)] = w.report_digest(report)
    return digests


def main(names) -> int:
    makers = {"assemble": assemble, "certify": certify, "sweep": sweep, "verify": verify}
    w.REFERENCE.mkdir(exist_ok=True)
    for name in names or makers:
        data = makers[name]()
        with open(w.REFERENCE / f"{name}.json", "w") as handle:
            json.dump(data, handle, indent=1)
            handle.write("\n")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
