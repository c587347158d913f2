"""Self-check of the benchmark at tiny sizes.

    python3 perfbench/selfcheck.py

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, that two traced runs give identical counts, that the
wrapped layers cover the traced wall time and the covered share falls when a
layer is left unwrapped, and that the end-of-episode check reports a
deliberately wrong expected owner.  Exits
non-zero on the first problem list that is not empty.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

MIN_COVERED = 0.9  # share of a traced episode's wall time the layers must account for


def emitted(metrics, spec, workload, problems):
    for entry in spec:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"{workload}: {entry['name']} not emitted")
        elif got[1] != entry["unit"]:
            problems.append(f"{workload}: {entry['name']} in {got[1]}, expected {entry['unit']}")
    extra = set(metrics) - {entry["name"] for entry in spec}
    if extra:
        problems.append(f"{workload}: metrics not in BENCHMARK.json: {sorted(extra)}")


def main() -> int:
    workloads.HANDOFFS, workloads.COINS, workloads.ROUNDS = 8, 6, 2
    workloads.FUZZ_STEPS = 200
    workloads.WORKLOADS["fuzz-byzantine"].size_episodes = 3
    run.SETUP_REPEATS = 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    covered = {}

    for name, workload in workloads.WORKLOADS.items():
        attempted, failed, failures, metrics, _ = run.measure_end_to_end(workload, 1, 0.0)
        if failed or not attempted:
            problems.append(f"{name}: {failed} of {attempted} failed: {failures[:3]}")
        emitted(metrics, spec["end_to_end"], name, problems)

        first = run.measure_traced(workload, 1)[3]
        second = run.measure_traced(workload, 1)[3]
        emitted(first, spec["per_layer"], name, problems)
        for metric, (value, unit) in first.items():
            if unit != "s" and not metric.startswith("trace.") and second[metric][0] != value:
                problems.append(f"{name}: traced {metric} differs: {value} then {second[metric][0]}")
        covered[name] = first["trace.covered_share"][0]
        if covered[name] < MIN_COVERED:
            problems.append(f"{name}: layers cover only {covered[name]:.3f} of the traced wall time")

    # fuzz-byzantine's harness runs inside scenarios.fuzz: unwrapped, its time is uncovered
    full = covered["fuzz-byzantine"]
    partial = run.measure_traced(workloads.WORKLOADS["fuzz-byzantine"], 1, skip=("scenarios",))[3][
        "trace.covered_share"][0]
    if not partial < full - 0.05:
        problems.append(f"covered share {full:.3f} did not fall without the scenarios "
                        f"layer ({partial:.3f})")

    chain = workloads.WORKLOADS["handoff-chain"]
    state = chain.setup(1, 0)
    (slot, holder), = state.expected.items()
    state.expected[slot] = next(n for n in state.sim.wallets if n != holder)
    if not any(f"slot {slot}" in f for f in chain.measure(state).failures):
        problems.append("a wrong expected owner was not reported")

    for problem in problems:
        print(problem)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
