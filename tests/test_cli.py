"""Command-line entry points."""

import json

import pytest
from click.testing import CliRunner

from plasma_cash.bench import bench_compact_proofs
from plasma_cash.cli import main


def test_run_scenario():
    result = CliRunner().invoke(main, ["run", "--scenario", "S1"])
    assert result.exit_code == 0, result.output
    assert "S1" in result.output


def test_run_unknown_scenario_fails():
    """An unknown scenario is a usage error that names the known ones."""
    result = CliRunner().invoke(main, ["run", "--scenario", "S9"])
    assert result.exit_code == 2 and result.exception.__class__ is SystemExit
    assert all(name in result.output for name in ("S1", "S2", "S3", "S4", "S5"))


def test_run_json_report(tmp_path):
    path = tmp_path / "report.json"
    result = CliRunner().invoke(
        main, ["run", "--scenario", "S2", "--maturity", "5", "--json", str(path)]
    )
    assert result.exit_code == 0, result.output
    obj = json.loads(path.read_text())
    assert obj["name"] == "S2" and obj["passed"] is True


def test_fuzz_command():
    result = CliRunner().invoke(main, ["fuzz", "--steps", "100", "--seed", "3", "--byzantine"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_fuzz_refuses_a_step_count_below_one(steps):
    """No steps is a usage error (exit code 2), not an empty PASS."""
    result = CliRunner().invoke(main, ["fuzz", "--steps", steps])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "PASS" not in result.output


@pytest.mark.parametrize(
    "args",
    [
        ["--depth", "0"],
        ["--depth", "70"],
        ["--txs", "0"],
        ["--trials", "0"],
        ["--depth", "4", "--txs", "16"],  # no empty slot left to sample
    ],
)
def test_bench_refuses_bad_arguments(args):
    """A bad flag is a usage error (exit code 2), not a traceback."""
    result = CliRunner().invoke(main, ["bench-proofs", *args])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output


def test_bench_command(tmp_path):
    path = tmp_path / "bench.json"
    result = CliRunner().invoke(
        main,
        ["bench-proofs", "--txs", "50", "--depth", "16", "--trials", "20", "--json", str(path)],
    )
    assert result.exit_code == 0, result.output
    obj = json.loads(path.read_text())
    # a 2-byte bitfield, then 1 to 16 whole 32-byte siblings
    sizes = {2 + 32 * k for k in range(1, 17)}
    assert obj["min_compact"] in sizes and obj["max_compact"] in sizes
    assert obj["min_compact"] <= obj["mean_compact"] <= obj["max_compact"]
    # an exclusion may also carry a neighbour: a 2-byte slot and its leaf
    sizes |= {2 + 2 + 32 + 32 * k for k in range(0, 17)}
    assert obj["min_exclusion"] in sizes and obj["max_exclusion"] in sizes
    assert obj["min_exclusion"] <= obj["mean_exclusion"] <= obj["max_exclusion"]
    assert "mean exclusion over 20 empty slots" in result.output


def test_bench_needs_an_empty_slot():
    """Exclusions are sampled from empty slots, so a tree with none, or more
    transactions than slots, is refused instead of sampling forever."""
    for txs in (0, 16, 17):
        with pytest.raises(ValueError):
            bench_compact_proofs(txs=txs, depth=4, trials=5)
    # every sample is the one empty slot: its pair's leaf as the neighbour,
    # three siblings
    stats = bench_compact_proofs(txs=15, depth=4, trials=5)
    assert stats["min_exclusion"] == stats["max_exclusion"] == 1 + 3 * 32 + 1 + 32


@pytest.mark.parametrize(
    "args",
    [
        ["--bond", "-50"],
        ["--bond", "0"],
        ["--maturity", "-1"],
        ["--smt-depth", "0"],
        ["--smt-depth", "65"],
    ],
)
def test_run_refuses_bad_chain_parameters(args):
    """A bad flag is a usage error (exit code 2), not a PASS or a traceback."""
    result = CliRunner().invoke(main, ["run", "--scenario", "S2", *args])
    assert result.exit_code == 2, result.output
    assert "Error:" in result.output and "PASS" not in result.output


def test_run_takes_chain_parameters_from_flags(tmp_path):
    """The flags set the chain: in S2 Alice loses her coin of 5 and her
    slashed exit bond of 7, the ``--bond`` value, and Bob gains both."""
    path = tmp_path / "report.json"
    result = CliRunner().invoke(
        main,
        ["run", "--scenario", "S2", "--maturity", "3", "--bond", "7", "--json", str(path)],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(path.read_text())["bond_ledger"] == {"alice": -12, "bob": 12, "operator": 0}
