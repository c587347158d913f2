"""Plasma-cash benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload handoff-chain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the simulator is imported from its ``src``.

``--trace 0`` measures end to end with nothing wrapped but the hand-off
probe: set-up is timed ``SETUP_REPEATS`` times (fresh import plus the
episode's set-up) and its median reported, episode 0 is an untimed warm-up,
then episodes run until ``--seconds`` have passed.  Each timed interval is
bracketed by a calibration pass and rescaled to the reference machine speed
(see ``calibration.py``).  ``--trace 1`` runs episode 0 once
untraced and once with every layer wrapped (see ``tracing.py``), reports the
per-layer breakdown and writes the spans to ``.bench_out/``.

Every line before the last names a metric, its value and its unit; the last
line is the JSON result.  The exit code is non-zero, with no result line,
when the simulator cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_S, calibration_s
from tracing import Tracer
from workloads import WORKLOADS, HandoffProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

LAYERS = ("smt", "core", "history", "operator_node", "rootchain", "wallet",
          "driver", "scenarios", "bench")


def fresh_import():
    """Import the simulator from this checkout, dropping any earlier import
    so the next one runs every module body again."""
    for name in [m for m in sys.modules if m == "plasma_cash" or m.startswith("plasma_cash.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("plasma_cash")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"plasma_cash imported from {package.__file__}, not {SRC}")


def calibrated(fn):
    """Run ``fn`` between two calibration passes; return its result and its
    wall time rescaled to the reference machine speed, plus that scale."""
    before = calibration_s()
    t0 = perf_counter()
    result = fn()
    elapsed = perf_counter() - t0
    scale = 2 * REFERENCE_S / (before + calibration_s())
    return result, elapsed * scale, scale


def timed_setup(workload, seed: int) -> float:
    """Median over SETUP_REPEATS of a fresh import plus episode 0's set-up."""
    def setup():
        fresh_import()
        workload.setup(seed, 0)

    return statistics.median(calibrated(setup)[1] for _ in range(SETUP_REPEATS))


def measure_end_to_end(workload, seed: int, seconds: float):
    setup_s = timed_setup(workload, seed)
    probe = HandoffProbe()
    probe.install()

    outcomes = [workload.measure(workload.setup(seed, 0))]
    probe.encode_delivered(record=True)

    # delivery sizes come from the first size_episodes episodes only, so the
    # figure does not depend on how many episodes fit in the run
    rates, latencies = [], []
    start = perf_counter()
    episode = 1
    while episode < max(2, workload.size_episodes) or perf_counter() - start < seconds:
        state = workload.setup(seed, episode)
        probe.reset()
        outcome, elapsed, scale = calibrated(lambda: workload.measure(state))
        outcomes.append(outcome)
        rates.append(outcome.completed / elapsed)
        latencies += [x * scale * 1e3 for x in probe.latencies]
        probe.encode_delivered(record=episode < workload.size_episodes)
        episode += 1

    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "handoff_p50_ms": (statistics.median(latencies), "ms"),
        "handoff_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
        "delivery_bytes": (statistics.fmean(probe.history_bytes), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failures = [f for o in outcomes for f in o.failures]
    info = {"episodes": episode - 1, "handoff_samples": len(latencies)}
    return sum(o.attempted for o in outcomes), len(failures), failures, metrics, info


def traced_episode(workload, seed: int, tracer: Tracer, counters: bool, skip=()):
    """Episode 0 with every layer but those in ``skip`` wrapped; ``mark``
    snapshots the hash plus signature-recovery count after each block."""
    state = workload.setup(seed, 0)
    tracer.install(counters, skip)
    marks = []

    def mark():
        marks.append(tracer.counts["smt.hash_pair"] + tracer.counts["core.Keyring.recover"])

    try:
        outcome, elapsed, scale = calibrated(
            lambda: tracer.spanned("bench.episode", workload.measure)(state, mark)
        )
    finally:
        tracer.uninstall()
    return outcome, elapsed, elapsed / scale, marks


def measure_traced(workload, seed: int, skip=()):
    """Episode 0 three times: untraced, with spans only (times), and with
    spans plus per-hash counters (counts).  ``skip`` names layers to leave
    unwrapped (the self-check uses it to show uncovered time)."""
    fresh_import()
    state = workload.setup(seed, 0)
    first, untraced_s, _ = calibrated(lambda: workload.measure(state))

    timed, counted = Tracer(), Tracer()
    second, traced_s, wall_s, _ = traced_episode(workload, seed, timed, False, skip)
    third, _, _, marks = traced_episode(workload, seed, counted, True, skip)
    outcomes = [first, second, third]

    metrics = layer_metrics(timed, counted, traced_s / untraced_s, wall_s, marks, third.attempted)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    timed.write_spans(str(out_dir / f"spans-{workload.name}-seed{seed}.csv"))
    failures = [f for o in outcomes for f in o.failures]
    info = {"spans": len(timed.span_start), "traced_s": traced_s, "untraced_s": untraced_s}
    return sum(o.attempted for o in outcomes), len(failures), failures, metrics, info


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, counted: Tracer, overhead: float, wall_s: float,
                  marks, handoffs: int):
    """Per-layer metrics: times and outcomes from the spans-only ``tracer``
    (whose episode took ``wall_s``), per-hash counts from the ``counted``
    pass over the same inputs."""
    rows = tracer.summary()
    counts, errors = tracer.counts, tracer.errors
    hashes = counted.counts
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "layer_outer_s": 0.0}
    out = {}

    def row(name):
        return rows.get(name, empty)

    def put(name, value, unit):
        out[name] = (value, unit)

    def stats(name, *keys):
        r = row(name)
        for key in keys:
            put(f"{name}.{key}", r[key], "count" if key == "calls" else "s")

    def failed_calls(name):
        return sum(n for (span, _), n in errors.items() if span == name)

    def ok_ratio(name):
        calls = row(name)["calls"]
        return _ratio(calls - failed_calls(name), calls)

    stats("smt.verify", "calls", "self_s")
    put("smt.hash_pair.calls", hashes["smt.hash_pair"], "count")
    put("smt.hashes_per_verify",
        _ratio(hashes["smt.hash_pair@smt.verify"], row("smt.verify")["calls"]), "hashes/call")
    stats("smt.SparseMerkleTree.build", "calls", "self_s")
    stats("smt.SparseMerkleTree.prove", "calls", "self_s")

    stats("core.Keyring.recover", "calls", "self_s")
    put("core.Transaction.hash.calls", hashes["core.Transaction.hash"], "count")
    stats("core.PlasmaBlock.build", "calls", "s")

    stats("history.verify_history", "calls", "s", "self_s")
    put("history.verify_history.blocks_per_call",
        _ratio(counts["history.verify_history.blocks"], row("history.verify_history")["calls"]),
        "blocks/call")
    stats("history.valid_tip", "calls", "s", "self_s")
    stats("history.extend_history", "calls", "s", "self_s")
    extend = row("history.extend_history")
    put("history.extend_history.witnesses_per_call",
        _ratio(extend.get("children.operator_node.get_witness", 0), extend["calls"]),
        "witnesses/call")

    stats("operator_node.produce_block", "calls", "s")
    stats("operator_node.get_witness", "calls", "s")
    put("operator_node.get_witness.withheld",
        errors["operator_node.get_witness", "WitnessUnavailable"], "count")
    stats("operator_node.submit_tx", "calls")
    put("operator_node.submit_tx.accepted_ratio",
        _ratio(counts["operator_node.submit_tx.accepted"], row("operator_node.submit_tx")["calls"]),
        "ratio")

    for move in ("start_exit", "challenge_after", "challenge_between", "challenge_before"):
        stats(f"rootchain.{move}", "calls")
        put(f"rootchain.{move}.ok_ratio", ok_ratio(f"rootchain.{move}"), "ratio")
    put("rootchain.finalize_exit.finalized", counts["rootchain.finalize_exit.Finalized"], "count")
    put("rootchain.finalize_exit.cancelled",
        counts["rootchain.finalize_exit.CancelledByChallenge"], "count")
    put("rootchain.s",
        sum(r["layer_outer_s"] for n, r in rows.items() if n.startswith("rootchain.")), "s")

    stats("wallet.receive_coin", "calls", "s", "self_s")
    put("wallet.receive_coin.accepted_ratio",
        _ratio(counts["wallet.receive_coin.accepted"], row("wallet.receive_coin")["calls"]), "ratio")
    stats("wallet.send_coin", "calls", "s")
    stats("wallet.sync", "calls", "s")
    put("wallet.sync.errors", failed_calls("wallet.sync"), "count")
    stats("wallet.watch_and_challenge", "calls", "s")
    put("wallet.watch_and_challenge.actions", counts["wallet.watch_and_challenge.actions"], "count")

    for fn in ("deliver", "commit_block", "transfer", "run_watchers"):
        stats(f"driver.{fn}", "calls", "s", "self_s")
    stats("scenarios.fuzz", "self_s")

    for layer in LAYERS:
        put(f"{layer}.self_s",
            sum(r["self_s"] for n, r in rows.items() if n.split(".", 1)[0] == layer), "s")

    # hashes plus signature recoveries per hand-off, from the per-block marks
    per = [(b - a) * len(marks) / handoffs for a, b in zip([0] + marks, marks)]
    tenth = max(1, len(per) // 10)
    m = len(per) // 2
    put("handoff.hashes_per_handoff.first", statistics.fmean(per[:tenth]) if per else 0.0, "count")
    put("handoff.hashes_per_handoff.last", statistics.fmean(per[-tenth:]) if per else 0.0, "count")
    put("handoff.growth_exponent",
        math.log2(per[2 * m - 1] / per[m - 1]) if m and per[m - 1] else 0.0, "1")

    put("trace.overhead_ratio", overhead, "ratio")
    # share of the episode's wall time spent in a wrapped layer, not in the harness
    covered = sum(r["self_s"] for n, r in rows.items() if n.split(".", 1)[0] != "bench")
    put("trace.covered_share", _ratio(covered, wall_s), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "plasma_cash").is_dir():
        print(f"no simulator sources at {SRC / 'plasma_cash'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    if args.trace:
        attempted, failed, failures, metrics, info = measure_traced(workload, args.seed)
    else:
        attempted, failed, failures, metrics, info = measure_end_to_end(
            workload, args.seed, args.seconds
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for key, value in info.items():
        print(f"# {key} {value}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    failed = min(failed, attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
