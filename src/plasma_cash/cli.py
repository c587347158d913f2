"""Command-line entry point: scripted scenarios, the fuzz harness, and the
proof-size benchmark.  Exit code 0 iff all assertions pass."""

from __future__ import annotations

import json
import sys

import click

from .rootchain import ChainParams
from . import bench as bench_mod
from . import scenarios as scn


def _params(maturity, bond, smt_depth) -> ChainParams:
    """The chain parameters from the flags, defaults for those not given;
    anything ``ChainParams`` refuses is a usage error (exit code 2)."""
    given = {"maturity_period": maturity, "bond_amount": bond, "smt_depth": smt_depth}
    try:
        return ChainParams(**{name: value for name, value in given.items() if value is not None})
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _write_report(report_json: str, path):
    if path:
        with open(path, "w") as fh:
            fh.write(report_json + "\n")


def _finish(report: scn.ScenarioReport, json_path):
    """Write the report, print its verdict, any extras and its failures; exit 0 iff it passed."""
    _write_report(report.to_json(), json_path)
    extras = f" {report.extras}" if report.extras else ""
    click.echo(f"{report.name}: {'PASS' if report.passed else 'FAIL'}{extras}")
    for failure in report.failures:
        click.echo(f"  - {failure}")
    sys.exit(0 if report.passed else 1)


@click.group()
def main():
    """Deterministic plasma coin-exit simulator."""


@main.command("run")
@click.option("--scenario", "name", required=True, type=click.Choice(sorted(scn.SCENARIOS)))
@click.option("--maturity", type=int, default=None, help="maturity period override")
@click.option("--bond", type=int, default=None, help="bond amount override")
@click.option("--smt-depth", type=int, default=None, help="tree depth override")
@click.option("--watcher/--no-watcher", default=True, show_default=True,
              help="run the defending wallet watcher")
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="write the full report to this path")
def run_cmd(name, maturity, bond, smt_depth, watcher, json_path):
    """Run one scripted scenario and check its expected outcome."""
    params = _params(maturity, bond, smt_depth)
    _finish(scn.run(name, params=params, watcher=watcher), json_path)


@main.command("fuzz")
@click.option("--steps", required=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--byzantine/--honest", default=False, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def fuzz_cmd(steps, seed, byzantine, json_path):
    """Randomized interleaving run with invariant checking."""
    _finish(scn.fuzz(steps, seed=seed, byzantine=byzantine), json_path)


@main.command("bench-proofs")
@click.option("--txs", default=2378, show_default=True, type=click.IntRange(min=1))
@click.option("--depth", default=64, show_default=True, type=click.IntRange(1, 64))
@click.option("--trials", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--json", "json_path", type=click.Path(), default=None)
def bench_cmd(txs, depth, trials, seed, json_path):
    """Measure encoded proof sizes, of inclusions and of exclusions: the
    bitfield form every history and challenge carries.  A bitfield takes
    the fewest bytes that hold it, but among uniformly random slots the
    top sibling is almost always sent, so these proofs keep the full
    ``(depth + 7) // 8`` bytes."""
    try:
        result = bench_mod.bench_compact_proofs(txs=txs, depth=depth, trials=trials, seed=seed)
    except ValueError as exc:  # more transactions than the tree has slots
        raise click.UsageError(str(exc))
    _write_report(json.dumps(result, indent=2), json_path)
    click.echo(
        f"mean compact over {trials} proofs: {result['mean_compact']:.1f} bytes "
        f"(min {result['min_compact']}, max {result['max_compact']})"
    )
    click.echo(
        f"mean exclusion over {trials} empty slots: {result['mean_exclusion']:.1f} bytes "
        f"(min {result['min_exclusion']}, max {result['max_exclusion']})"
    )


if __name__ == "__main__":
    main()
