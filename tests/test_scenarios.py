"""Scripted scenarios, determinism, and small fuzz smoke runs."""

import hashlib
import json

import pytest

from plasma_cash import smt
from plasma_cash.core import IncludedTx
from plasma_cash.driver import Simulation
from plasma_cash.errors import UnknownBlock, UnknownScenario
from plasma_cash.history import CoinHistory, Mark, valid_tip
from plasma_cash.operator_node import PlasmaOperator
from plasma_cash.rootchain import CHILD_BLOCK_INTERVAL, PlasmaContract
from plasma_cash.scenarios import SCENARIOS, fuzz, run
from plasma_cash.wallet import Wallet


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name):
    report = run(name)
    assert report.passed, report.failures


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes_without_watcher(name):
    # attack-success variants: the protocol outcome flips but the scripted
    # expectations for that variant still hold
    report = run(name, watcher=False)
    assert report.passed, report.failures


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_trace_is_deterministic(name):
    a, b = run(name), run(name)
    assert a.event_trace == b.event_trace
    assert a.bond_ledger == b.bond_ledger


def test_unknown_scenario_rejected():
    with pytest.raises(UnknownScenario):
        run("S9")


def test_report_serializes():
    report = run("S1")
    obj = json.loads(report.to_json())
    assert obj["name"] == "S1" and obj["passed"] is True


def test_s2_attack_steals_without_watcher():
    honest = run("S2")
    exposed = run("S2", watcher=False)
    assert "ExitCancelled" in [e["kind"] for e in honest.event_trace]
    assert "Withdrawn" in [e["kind"] for e in exposed.event_trace]


def test_fuzz_smoke_honest():
    report = fuzz(300, seed=5)
    assert report.passed, report.failures


def test_fuzz_smoke_byzantine():
    report = fuzz(300, seed=5, byzantine=True)
    assert report.passed, report.failures


@pytest.mark.parametrize(
    "byzantine, pinned",
    [
        (False, {"verifies": 4070, "witnesses": 2924, "syncs": 3234, "cached": 131}),
        (True, {"verifies": 3869, "witnesses": 3033, "syncs": 3267, "cached": 139}),
    ],
)
def test_fuzz_spends_nothing_on_empty_blocks(monkeypatch, byzantine, pinned):
    """In fuzz(1000, seed=0) no proof is verified against the empty-tree
    root, since no history lists a block with no transaction; the counts of
    verifies, witnesses fetched, wallet syncs and exclusion entries the
    blocks cache are pinned.  The operator serves no deposit entry: the 21
    entries at deposit blocks that the byzantine run's exits name come from
    the contract's record."""
    counts, blocks = {key: 0 for key in pinned}, []
    verify, get_witness, sync = smt.verify, PlasmaOperator.get_witness, Wallet.sync
    produce = PlasmaOperator.produce_block
    empty_roots = []

    def counted_verify(slot, leaf, proof, root, config, known=None):
        counts["verifies"] += 1
        if root == config.defaults[config.depth]:
            empty_roots.append(slot)
        return verify(slot, leaf, proof, root, config, known)

    def counted(key, method):
        def call(self, *args):
            counts[key] += 1
            return method(self, *args)
        return call

    def kept(operator, number):
        blocks.append(produce(operator, number))
        return blocks[-1]

    monkeypatch.setattr(smt, "verify", counted_verify)
    monkeypatch.setattr(PlasmaOperator, "get_witness", counted("witnesses", get_witness))
    monkeypatch.setattr(Wallet, "sync", counted("syncs", sync))
    monkeypatch.setattr(PlasmaOperator, "produce_block", kept)
    assert fuzz(1000, seed=0, byzantine=byzantine).passed
    counts["cached"] = sum(len(block._shared) for block in blocks)
    assert empty_roots == [] and counts == pinned


def test_every_handed_history_decodes_to_itself(monkeypatch):
    """Every history a wallet is handed in S1-S5, with the watcher on and
    off, and in fuzz(1000, seed=0), honest and byzantine, encodes to bytes
    that decode back to it, and carries no deposit entry: a receiver audits
    from the contract's record.  The fuzz hands one per delivery it counts."""
    handed = []
    receive = Wallet.receive_coin

    def checked(wallet, history):
        assert CoinHistory.decode(history.encode(wallet.config), wallet.config) == history
        assert history.deposit_block not in history.incl
        handed.append(history)
        return receive(wallet, history)

    monkeypatch.setattr(Wallet, "receive_coin", checked)
    for name in sorted(SCENARIOS):
        for watcher in (True, False):
            assert run(name, watcher=watcher).passed
    assert handed
    for byzantine in (False, True):
        handed.clear()
        report = fuzz(1000, seed=0, byzantine=byzantine)
        assert report.passed and len(handed) == report.extras["deliveries"] > 0


def test_an_accepted_history_marks_the_logs_last_block_and_valid_tip(monkeypatch):
    """After every accepted ``receive_coin`` in S1-S5, with the watcher on
    and off, and in fuzz(1000) at seeds 0-2, honest and byzantine, the new
    mark is the log's last block and the valid tip walked there from the
    old mark's tip, and both maps of the log are in ascending block order:
    the block ``receive_coin`` takes from the entries it splices in is the
    one the log gives."""
    accepted = []
    receive = Wallet.receive_coin

    def checked(wallet, history):
        old = wallet.mark(history.slot)
        verdict = receive(wallet, history)
        if verdict.accepted:
            log = wallet.coins[history.slot]
            tip = valid_tip(log, wallet.keyring, old.tip)
            assert wallet.marks[history.slot] == Mark(log.last_block(), tip)
            assert list(log.incl) == sorted(log.incl) and list(log.excl) == sorted(log.excl)
            accepted.append(history)
        return verdict

    monkeypatch.setattr(Wallet, "receive_coin", checked)
    for name in sorted(SCENARIOS):
        for watcher in (True, False):
            assert run(name, watcher=watcher).passed
    assert accepted
    for seed in range(3):
        for byzantine in (False, True):
            accepted.clear()
            assert fuzz(1000, seed=seed, byzantine=byzantine).passed and accepted


MOVES = ("start_exit", "challenge_after", "challenge_between", "challenge_before",
         "respond_challenge_before")


def test_a_deposit_is_stated_once_by_the_contract(monkeypatch):
    """In S1-S5, with the watcher on and off, and in fuzz(1000, seed=0),
    honest and byzantine, every entry at a coin's deposit block that a
    contract move takes or a wallet's log holds is the coin's record,
    ``CoinRecord.deposit``, itself; the operator keeps operator blocks only
    and serves no witness at a deposit block."""
    sims, seen = [], {"moves": 0, "logs": 0}
    post_init, sync = Simulation.__post_init__, Wallet.sync

    def kept(sim):
        post_init(sim)
        sims.append(sim)

    def is_record(coins, slot, itx):
        coin = coins.get(slot)
        if coin is not None and itx.blk_number == coin.deposit_block:
            assert itx is coin.deposit
            return True
        return False

    def checked(method):
        def move(contract, caller, slot, *args):
            for arg in args:
                if isinstance(arg, IncludedTx) and is_record(contract.coins, slot, arg):
                    seen["moves"] += 1
            return method(contract, caller, slot, *args)
        return move

    def logs_checked(wallet):
        for slot, log in wallet.logs.items():
            entry = log.incl.get(wallet.contract.coins[slot].deposit_block)
            seen["logs"] += entry is not None and is_record(wallet.contract.coins, slot, entry)

    def synced(wallet, slot, witness):
        logs_checked(wallet)
        return sync(wallet, slot, witness)

    monkeypatch.setattr(Simulation, "__post_init__", kept)
    for name in MOVES:
        monkeypatch.setattr(PlasmaContract, name, checked(getattr(PlasmaContract, name)))
    monkeypatch.setattr(Wallet, "sync", synced)
    reports = [run(name, watcher=watcher) for name in sorted(SCENARIOS) for watcher in (True, False)]
    reports += [fuzz(1000, seed=0, byzantine=byzantine) for byzantine in (False, True)]
    assert all(report.passed for report in reports) and len(sims) == len(reports)
    for sim in sims:
        for wallet in sim.wallets.values():
            logs_checked(wallet)
        assert all(number % CHILD_BLOCK_INTERVAL == 0 for number in sim.operator.blocks)
        for slot, coin in sim.contract.coins.items():
            with pytest.raises(UnknownBlock):
                sim.operator.get_witness(slot, coin.deposit_block)
    assert seen["moves"] > 0 and seen["logs"] > 0


def test_fuzz_deterministic_per_seed():
    a = fuzz(200, seed=11, byzantine=True)
    b = fuzz(200, seed=11, byzantine=True)
    assert a.event_trace == b.event_trace
    assert a.extras == b.extras


def test_fuzz_seeds_differ():
    a = fuzz(200, seed=1)
    b = fuzz(200, seed=2)
    assert a.event_trace != b.event_trace


# sha256 of the reports below, concatenated in order; a change that alters
# behaviour on purpose updates it and says why.  Last changed when a proof's
# bitfield took its fewest bytes: only the hex of the witnesses revealed in
# events changed, each the same entry re-encoded
REPORTS_DIGEST = "03b372aa0e34fbfd020462e0e84c9158c08f5f1dc375caa6a22779901bdb46c7"


def test_reports_are_byte_identical():
    """S1-S5 with the watcher on, then off, then fuzz(1000) at seeds 0-5,
    honest, then byzantine: every report serializes to the recorded bytes."""
    digest = hashlib.sha256()
    for name in sorted(SCENARIOS):
        for watcher in (True, False):
            digest.update(run(name, watcher=watcher).to_json().encode())
    for seed in range(6):
        for byzantine in (False, True):
            digest.update(fuzz(1000, seed=seed, byzantine=byzantine).to_json().encode())
    assert digest.hexdigest() == REPORTS_DIGEST
