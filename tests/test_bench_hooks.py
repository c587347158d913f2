"""The benchmark's tracer wraps package functions by name; a rename must
fail here, not only in a benchmark run."""

import sys
from pathlib import Path

import plasma_cash  # noqa: F401  -- loads every module the tracer patches

REPO_ROOT = Path(__file__).resolve().parents[1]


def package_namespaces():
    """Snapshot of every package module's and package class's attributes."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "plasma_cash" and not name.startswith("plasma_cash."):
            continue
        state[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == name:
                state[f"{name}.{attr}"] = dict(vars(value))
    return state


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.tracing import Tracer

    before = package_namespaces()
    tracer = Tracer()
    try:
        tracer.install()
        assert package_namespaces() != before
    finally:
        tracer.uninstall()
    assert package_namespaces() == before


def test_many_coins_hash_count_is_its_closed_form(monkeypatch):
    """The benchmark's ``many-coins`` episode at seed 0: 64 coins minted in
    consecutive slots from 0, so each block fills one subtree of height 6
    at depth 64, moved once a round for 6 rounds among 8 wallets.  Building
    a block hashes the subtree's 63 inner nodes and the 58 levels above it;
    verifying an inclusion folds its 6 siblings, and a wallet's first
    verify against a block folds the 58 default levels above the subtree
    too, then its memo holds that path.  Deposit blocks hash nothing.  The
    test counts blocks, verified inclusions and (wallet, block) pairs from
    its own run."""
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    from perfbench.workloads import COINS, ROUNDS, WORKLOADS
    from plasma_cash import smt

    workload = WORKLOADS["many-coins"]
    state = workload.setup(0, 0)
    depth = state.sim.contract.config.depth
    assert sorted(state.expected) == list(range(COINS)) and depth == 64
    hashes, inclusions, pairs = [], [], set()
    hash_pair, verify = smt.hash_pair, smt.verify

    def counted(left, right):
        hashes.append(1)
        return hash_pair(left, right)

    def counted_verify(slot, leaf, proof, root, config, known=None):
        assert leaf != smt.DEFAULT_LEAF and known is not None  # inclusions, each against a wallet's memo
        inclusions.append(slot)
        pairs.add((id(known), root))
        return verify(slot, leaf, proof, root, config, known)

    monkeypatch.setattr(smt, "hash_pair", counted)
    monkeypatch.setattr(smt, "verify", counted_verify)
    blocks_before = len(state.sim.contract.operator_blocks)
    outcome = workload.measure(state)
    assert outcome.completed == outcome.attempted == COINS * ROUNDS and not outcome.failures
    blocks = len(state.sim.contract.operator_blocks) - blocks_before
    levels = COINS.bit_length() - 1  # 6: the subtree the coins fill
    above = depth - levels  # 58 default levels up to the root
    assert (blocks, levels, above) == (ROUNDS, 6, 58)
    closed_form = blocks * (COINS - 1 + above) + levels * len(inclusions) + above * len(pairs)
    assert len(hashes) == closed_form == 10_602
