"""Write reference.json: the package's values for every checked cell.

Run from the root of a checkout whose values are to become the reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark then checks each value it computes against this file, within
the sum of the two results' tolerances.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    out: dict[str, dict] = {}
    for name in workloads.WORKLOADS:
        for size in ("full", "tiny"):
            plan = workloads.build(name, seed=0, size=size, reference={})
            if isinstance(plan, workloads.SweepWorkload):
                for op in plan.ops:
                    for key, r in zip(op.keys, op.run()):
                        out[key] = {
                            "policy_gain": r.policy_gain,
                            "optimal_gain": r.optimal_gain,
                            "tolerance": r.tolerance,
                        }
            else:
                for kind in workloads.KINDS:
                    ref = plan.reference_value(kind)
                    out[plan.reference_key(kind)] = {
                        "value": ref.value,
                        "tolerance": ref.tolerance or 0.0,
                    }
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(dict(sorted(out.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
