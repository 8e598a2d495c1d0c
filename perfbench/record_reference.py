"""Rewrite reference.json, the recorded values behind the output gate.

    python3 perfbench/record_reference.py

Objectives of ladder40 and rmedian100 come from solving every instance
with each formulation; they must agree within 1e-9, and the leader set must
reach the value under full enumeration of follower choices.  hull_probe
records verify_hull's max_discrepancy per instance.  desk needs no file:
its references come from the brute-force oracle at set-up.  Run this only
when a workload's instances change, never to make a failing gate pass.
"""

import json
import sys

import run

run.import_scflp()

import scflp  # noqa: E402
import workloads  # noqa: E402


def proven_objective(inst, forms) -> float:
    values = []
    for form in forms:
        rep = scflp.solve(inst, scflp.BncConfig(formulation=form))
        _, achieved = scflp.follower_best_response(inst, rep.best_x, mode="enumerate")
        if rep.status != "optimal" or abs(achieved - rep.objective) > workloads.OBJ_TOL:
            sys.exit(f"{form}: status {rep.status}, objective {rep.objective!r}, enumeration {achieved!r}")
        values.append(rep.objective)
    if max(values) - min(values) > workloads.OBJ_TOL:
        sys.exit(f"formulations disagree: {values}")
    return values[0]


def main():
    refs = {
        "ladder40": {key: proven_objective(inst, ("GSF", "EF", "SF")) for key, _, inst in workloads.ladder40_instances()},
        "rmedian100": {"biesinger": proven_objective(workloads.rmedian100_instance(), ("GSF", "EF"))},
        "hull_probe": {
            str(k): scflp.verify.verify_hull(inst, y, trials=workloads.HULL_TRIALS, seed=60_000 + k).max_discrepancy
            for k, (inst, y) in enumerate(workloads.hull_instances())
        },
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    print(json.dumps(refs, indent=1))


if __name__ == "__main__":
    main()
