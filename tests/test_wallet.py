"""Wallets: transfer etiquette, history auditing, and auto-challenging."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from conftest import flip, proof_from_siblings, siblings_of
from plasma_cash import core, smt
from plasma_cash.core import IncludedTx, Keyring, make_deposit_tx, make_transfer_tx
from plasma_cash.driver import Simulation
from plasma_cash.errors import BadProof, NotOwned, WitnessUnavailable, WrongState
from plasma_cash.history import (
    CoinHistory,
    Mark,
    Reason,
    extend_history,
    valid_tip,
    verify_history,
)
from plasma_cash.rootchain import ChainParams, CoinState
from plasma_cash.wallet import Wallet

PARAMS = ChainParams(maturity_period=5, smt_depth=16)


def make_sim():
    return Simulation(params=PARAMS)


def settled_transfer(sim, sender, slot, receiver):
    tx, receipt = sim.transfer(sender, slot, receiver)
    assert receipt.accepted
    sim.commit_block()
    return sim.deliver(sender, slot, receiver)


def test_send_receive_moves_ownership():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    assert not sim.actor("alice").owns(slot)
    assert sim.actor("bob").owns(slot)
    assert sim.ledger.true_owner(slot) == sim.address("bob")


def test_contract_view_stays_current():
    """The contract's one view reads its roots in place: a view taken
    before a commit covers the new block, and a wallet verifies a delivery
    made after the commit without being handed a new view."""
    sim = make_sim()
    view = sim.contract.view
    slot = sim.deposit("alice", 5)
    deposit_block = sim.contract.coins[slot].deposit_block
    sim.deposit("dave", 1)
    _, receipt = sim.transfer("alice", slot, "bob")
    assert receipt.accepted
    block = sim.commit_block()
    assert sim.contract.view is view
    assert view.roots[block.number] == block.root
    assert view.history_blocks(deposit_block) == [block.number]
    assert sim.deliver("alice", slot, "bob")
    assert sim.contract.view is view


def test_cannot_spend_unowned_coin():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    with pytest.raises(NotOwned):
        sim.actor("bob").send_coin(slot, sim.address("alice"))
    with pytest.raises(NotOwned):
        sim.deliver("bob", slot, "alice")


def test_receiver_rejects_unknown_coin():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    history = sim.actor("alice").coins[slot]
    import dataclasses
    bogus = dataclasses.replace(history, slot=slot + 7)
    verdict = sim.actor("bob").receive_coin(bogus)
    assert not verdict


def test_receiver_rejects_history_ending_elsewhere():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    sim.transfer("alice", slot, "bob")
    sim.commit_block()
    alice = sim.actor("alice")
    alice.sync(slot, sim.operator.get_witness)
    carol = sim.actor("carol")
    history = alice.coins.pop(slot).past(carol.mark(slot).block)
    # Carol is handed Bob's coin
    verdict = carol.receive_coin(history)
    assert not verdict and "does not end" in verdict.detail


def test_receiver_rejects_forged_history():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    mallory = sim.actor("mallory")
    forged = make_transfer_tx(
        mallory.signer, slot, sim.contract.coins[slot].deposit_block, mallory.address
    )
    sim.operator.inject_raw_tx(forged)
    sim.commit_block()
    history = extend_history(
        CoinHistory(slot, sim.contract.coins[slot].deposit_block),
        sim.contract.view,
        sim.operator.get_witness,
    )
    verdict = sim.actor("dave").receive_coin(history)
    assert not verdict and verdict.reason is Reason.BAD_SIGNATURE


def test_receiver_rejects_double_spend_history():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    # Alice re-spends her consumed deposit to Carol in a later block
    alice = sim.actor("alice")
    dep_block = sim.contract.coins[slot].deposit_block
    stale = make_transfer_tx(alice.signer, slot, dep_block, sim.address("carol"))
    assert sim.operator.inject_raw_tx(stale).accepted
    sim.commit_block()
    history = extend_history(
        CoinHistory(slot, dep_block), sim.contract.view, sim.operator.get_witness
    )
    verdict = sim.actor("carol").receive_coin(history)
    assert not verdict and verdict.reason is Reason.BROKEN_PARENT_LINK


# -- automatic challenges --


def finish_exit(sim, slot):
    sim.contract.advance_time(PARAMS.maturity_period)
    return sim.contract.finalize_exit(slot)


def test_watcher_challenges_exit_of_spent_coin():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    sim.exit_with("alice", slot, None, sim.contract.coins[slot].deposit_block)  # stale deposit exit
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("after", True)]
    assert slot not in sim.contract.exits
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED


def test_watcher_challenges_double_spend_exit():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    alice = sim.actor("alice")
    dep_block = sim.contract.coins[slot].deposit_block
    stale = make_transfer_tx(alice.signer, slot, dep_block, alice.address)
    assert sim.operator.inject_raw_tx(stale).accepted
    block = sim.commit_block()
    sim.exit_with("alice", slot, dep_block, block.number)
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("between", True)]
    assert slot not in sim.contract.exits


def forged_exit(sim, slot):
    """Mallory forges a spend of Bob's coin and an exit on top of it;
    returns the (parent, exit) block numbers and starts the exit."""
    mallory = sim.actor("mallory")
    forged_parent = make_transfer_tx(mallory.signer, slot, 1000, mallory.address)
    sim.operator.inject_raw_tx(forged_parent)
    p_blk = sim.commit_block()
    forged_exit = make_transfer_tx(mallory.signer, slot, p_blk.number, mallory.address)
    sim.operator.inject_raw_tx(forged_exit)
    e_blk = sim.commit_block()
    blocks = (p_blk.number, e_blk.number)
    sim.exit_with("mallory", slot, *blocks)
    return blocks


def test_watcher_stakes_before_challenge_on_forged_history():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    forged_exit(sim, slot)

    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("before", True)]
    assert finish_exit(sim, slot) == "CancelledByChallenge"
    # Bob keeps the coin and nets Mallory's slashed bond
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED
    assert sim.contract.balance_of(sim.address("bob")) == sim.initial_balance + PARAMS.bond_amount


def test_watcher_challenges_a_restarted_forged_exit():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    blocks = forged_exit(sim, slot)
    sim.run_watchers()
    assert finish_exit(sim, slot) == "CancelledByChallenge"

    # Mallory starts the very same exit again
    sim.exit_with("mallory", slot, *blocks)
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("before", True)]
    assert finish_exit(sim, slot) == "CancelledByChallenge"
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED
    assert sim.actor("bob").owns(slot)
    assert sim.ledger.true_owner(slot) == sim.address("bob")


@pytest.mark.parametrize("watcher", [True, False])
def test_forged_and_withheld_exit(watcher):
    """One operator forges and withholds in one run: after an
    honest hand-off to Bob it includes a forged Bob -> Mallory spend and
    Mallory's spend of it, withholding both, and Mallory exits from its raw
    blocks.  Bob cannot sync past his own block, yet his bonded challenge
    from it cancels the exit; with no watcher the theft finalizes."""
    sim = make_sim()
    assert sim.ledger is sim.operator.ledger
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    mallory, operator = sim.actor("mallory"), sim.operator

    def include_withheld(parent):
        spend = make_transfer_tx(mallory.signer, slot, parent, mallory.address)
        assert operator.inject_raw_tx(spend).accepted
        number = sim.commit_block().number
        operator.withhold(slot, number)
        return number

    # "Bob -> Mallory", signed by Mallory
    forged = include_withheld(sim.actor("bob").last_inclusion(slot).blk_number)
    spent = include_withheld(forged)
    with pytest.raises(WitnessUnavailable):
        sim.exit_with("mallory", slot, forged, spent)
    parent_tx, exit_tx = operator.blocks[forged].prove(slot), operator.blocks[spent].prove(slot)
    sim.contract.start_exit(mallory.address, slot, parent_tx, exit_tx)
    assert sim.ledger.true_owner(slot) == sim.address("bob")

    if not watcher:
        assert finish_exit(sim, slot) == "Finalized"
        assert sim.contract.coins[slot].owner == mallory.address
        assert sim.withdraw("mallory", slot) == 5
        return
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("before", True)]
    assert finish_exit(sim, slot) == "CancelledByChallenge"
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED
    assert sim.contract.balance_of(sim.address("bob")) == sim.initial_balance + PARAMS.bond_amount
    assert sim.actor("bob").owns(slot)


def test_watcher_ignores_own_and_honest_exits():
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    sim.start_exit("bob", slot)
    assert sim.run_watchers() == []
    assert finish_exit(sim, slot) == "Finalized"
    assert sim.withdraw("bob", slot) == 5


def test_an_honest_exitor_answers_a_before_challenge():
    """Alice pays Bob and Bob pays Carol; Carol exits, and Alice stakes a
    ``before`` challenge with the deposit entry she has since spent.
    Carol's watcher answers with Alice's spend from its log, so the exit
    finalizes: Carol nets Alice's challenge bond and Alice loses it."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    assert settled_transfer(sim, "bob", slot, "carol")
    before = sim.balances_snapshot()
    sim.start_exit("carol", slot)
    assert sim.run_watchers() == []
    deposit = sim.contract.coins[slot].deposit
    sim.contract.challenge_before(sim.address("alice"), slot, deposit)
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("respond", True)]
    assert sim.contract.exits[slot].challenges == []
    assert finish_exit(sim, slot) == "Finalized"
    after = sim.balances_snapshot()
    assert after["carol"] - before["carol"] == PARAMS.bond_amount
    assert after["alice"] - before["alice"] == -PARAMS.bond_amount


def test_an_exitor_with_no_answer_in_its_log_takes_no_action():
    """Mallory exits on a forged spend of Bob's coin and keeps the whole
    forged history as its log.  Bob's ``before`` challenge names his own
    entry; the only spend of it in Mallory's log is not signed by Bob, so
    Mallory's watcher makes no move and the exit is cancelled."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    forged_exit(sim, slot)
    deposit_block = sim.contract.coins[slot].deposit_block
    sim.actor("mallory").coins[slot] = extend_history(
        CoinHistory(slot, deposit_block), sim.contract.view, sim.operator.get_witness
    )
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("before", True)]
    assert len(sim.contract.exits[slot].challenges) == 1
    assert finish_exit(sim, slot) == "CancelledByChallenge"
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED


def test_an_exit_in_the_hand_off_window_is_challenged_by_the_receiver():
    """Bob pays Carol and, once the block is committed but before he hands
    the coin over, exits from the block that paid him.  Carol holds no log
    while the exit starts, yet her first pass after the delivery cancels it
    with Bob's spend to her and takes his bond; she then exits and withdraws."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    deposit_block = sim.contract.coins[slot].deposit_block
    bob_receipt = sim.actor("bob").last_inclusion(slot).blk_number
    _, receipt = sim.transfer("bob", slot, "carol")
    assert receipt.accepted
    sim.commit_block()
    before = sim.balances_snapshot()
    sim.exit_with("bob", slot, deposit_block, bob_receipt)
    assert sim.run_watchers() == []
    assert sim.deliver("bob", slot, "carol")
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("after", True)]
    assert slot not in sim.contract.exits
    after = sim.balances_snapshot()
    assert after["carol"] - before["carol"] == PARAMS.bond_amount
    assert after["bob"] - before["bob"] == -PARAMS.bond_amount
    sim.contract.advance_time(PARAMS.maturity_period)
    with pytest.raises(WrongState):
        sim.contract.finalize_exit(slot)
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED
    sim.start_exit("carol", slot)
    assert sim.run_watchers() == []
    assert finish_exit(sim, slot) == "Finalized"
    assert sim.withdraw("carol", slot) == 5


def test_a_revisited_exit_is_bonded_once():
    """Mallory's forged exit stays live over three passes.  Bob can only
    answer it with a ``before`` challenge; he stakes in the first pass and
    not again, so escrow holds the exit bond and his one bond."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    forged_exit(sim, slot)
    passes = [[(a.kind, a.ok) for a in sim.run_watchers()] for _ in range(3)]
    assert passes == [[("before", True)], [], []]
    assert sim.contract.bond_escrow == 2 * PARAMS.bond_amount
    assert len(sim.contract.exits[slot].challenges) == 1


def test_an_answered_before_challenge_is_not_staked_again():
    """The operator withholds Bob's spend to Carol and Carol's spend to
    Dave, so Bob, who cannot deliver, still holds the coin at his own
    block.  Dave exits; Bob stakes a ``before`` challenge, and Dave answers
    it with Bob's withheld spend after each pass.  Bob loses that one bond
    and stakes no other, and Dave's exit finalizes."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    operator, carol, dave = sim.operator, sim.actor("carol"), sim.actor("dave")
    _, receipt = sim.transfer("bob", slot, "carol")
    assert receipt.accepted
    to_carol = sim.commit_block().number
    assert operator.inject_raw_tx(make_transfer_tx(carol.signer, slot, to_carol, dave.address)).accepted
    to_dave = sim.commit_block().number
    for number in (to_carol, to_dave):
        operator.withhold(slot, number)
    spend = operator.blocks[to_carol].prove(slot)
    sim.contract.start_exit(dave.address, slot, spend, operator.blocks[to_dave].prove(slot))
    before = sim.balances_snapshot()
    passes = []
    for _ in range(3):
        passes.append([(a.kind, a.ok) for a in sim.run_watchers()])
        for challenge in tuple(sim.contract.exits[slot].challenges):
            sim.contract.respond_challenge_before(dave.address, slot, challenge.challenge_id, spend)
    assert passes == [[("before", True)], [], []]
    assert sim.balances_snapshot()["bob"] - before["bob"] == -PARAMS.bond_amount
    assert finish_exit(sim, slot) == "Finalized"


def test_a_refused_move_changes_nothing_and_is_tried_again():
    """Bob cannot pay the bond of his ``before`` challenge of Mallory's
    forged exit: the contract refuses it and is as it was, and each later
    pass tries again, until one stakes once he can pay."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    forged_exit(sim, slot)
    contract, bob = sim.contract, sim.address("bob")
    contract.balances[bob] = PARAMS.bond_amount - 1

    def state():
        return (sim.balances_snapshot(), contract.bond_escrow,
                list(contract.exits[slot].challenges), len(contract.events))

    before = state()
    for _ in range(2):
        actions = sim.run_watchers()
        assert [(a.kind, a.ok, a.error) for a in actions] == [("before", False, "InsufficientBalance")]
        assert state() == before
    contract.balances[bob] = PARAMS.bond_amount
    assert [(a.kind, a.ok) for a in sim.run_watchers()] == [("before", True)]
    assert contract.balance_of(bob) == 0
    assert finish_exit(sim, slot) == "CancelledByChallenge"


def test_an_exitor_answers_on_the_first_pass_its_log_holds_the_answer():
    """Carol exits from the operator's witnesses before Bob hands her the
    coin, and Alice stakes a ``before`` challenge with the deposit entry she
    spent to Bob.  Carol holds no log, so her passes make no move; the first
    pass after the delivery answers with Alice's spend, and the exit finalizes."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    bob_receipt = sim.actor("bob").last_inclusion(slot).blk_number
    _, receipt = sim.transfer("bob", slot, "carol")
    assert receipt.accepted
    carol_receipt = sim.commit_block().number
    sim.exit_with("carol", slot, bob_receipt, carol_receipt)
    deposit = sim.contract.coins[slot].deposit
    sim.contract.challenge_before(sim.address("alice"), slot, deposit)
    assert sim.run_watchers() == [] and sim.run_watchers() == []
    assert len(sim.contract.exits[slot].challenges) == 1
    assert sim.deliver("bob", slot, "carol")
    actions = sim.run_watchers()
    assert [(a.kind, a.ok) for a in actions] == [("respond", True)]
    assert sim.contract.exits[slot].challenges == []
    assert finish_exit(sim, slot) == "Finalized"
    assert sim.withdraw("carol", slot) == 5


def test_a_withdrawn_coin_leaves_every_wallet():
    """A withdrawn coin never comes back, so no wallet keeps its log or mark."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    assert all(slot in w.logs for w in sim.wallets.values()) and slot in sim.actor("bob").marks
    sim.start_exit("bob", slot)
    assert finish_exit(sim, slot) == "Finalized"
    assert sim.withdraw("bob", slot) == 5
    assert [(w.coins, w.logs, w.marks) for w in sim.wallets.values()] == [({}, {}, {})] * 2


def test_an_exit_of_a_coin_the_wallet_does_not_hold_starts_nothing():
    """``start_exit`` exits from the wallet's own log: Alice, who handed the
    coin on, Carol, who never held it, and Bob asking for a slot never
    minted are refused with NotOwned, and the contract is as it was."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    sim.actor("carol")

    def state():
        contract = sim.contract
        return (sim.balances_snapshot(), contract.value_escrow, contract.bond_escrow,
                dict(contract.exits), contract.coins[slot].state, len(contract.events))

    before = state()
    for name, coin in (("alice", slot), ("carol", slot), ("bob", slot + 1)):
        with pytest.raises(NotOwned):
            sim.start_exit(name, coin)
        assert state() == before
    sim.start_exit("bob", slot)
    assert state() != before


def test_exit_with_a_withheld_witness_starts_no_exit():
    """``exit_with`` fetches the operator's witnesses before it calls the
    contract: a withheld parent or exit witness leaves no trace on chain."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    sim.transfer("alice", slot, "bob")
    block = sim.commit_block()
    sim.operator.withhold(slot, block.number)
    later = sim.commit_block()
    dep_block = sim.contract.coins[slot].deposit_block
    before = sim.balances_snapshot()
    events = len(sim.contract.events)
    for blocks in [(dep_block, block.number), (block.number, later.number)]:
        with pytest.raises(WitnessUnavailable):
            sim.exit_with("bob", slot, *blocks)
    assert slot not in sim.contract.exits
    assert sim.contract.coins[slot].state is CoinState.DEPOSITED
    assert sim.event_kinds()[events:] == []  # no ExitStarted, nor anything else
    assert sim.balances_snapshot() == before


def test_a_withheld_empty_block_blocks_nothing():
    """A block with no transaction proves every slot empty by its root
    alone, so no history lists it: with the coin's witness there withheld,
    Bob still syncs and hands the coin to Carol, who exits from her own
    history and withdraws; no owner is driven to a protective exit."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    empty = sim.commit_block().number
    sim.operator.withhold(slot, empty)
    with pytest.raises(WitnessUnavailable):
        sim.operator.get_witness(slot, empty)
    sim.actor("bob").sync(slot, sim.operator.get_witness)
    assert settled_transfer(sim, "bob", slot, "carol")
    assert empty not in sim.actor("carol").logs[slot].excl
    sim.start_exit("carol", slot)
    assert sim.run_watchers() == [] and list(sim.contract.exits) == [slot]
    assert finish_exit(sim, slot) == "Finalized"
    assert sim.withdraw("carol", slot) == 5


def test_a_watcher_pass_syncs_only_after_a_new_history_block(monkeypatch):
    """After a pass whose syncs all succeeded every log covers every
    history block, so a pass with none committed since fetches no witness,
    however many empty blocks were.  A pass with a withheld witness leaves
    the next pass syncing every coin again, until one succeeds."""
    sim = make_sim()
    a, b, c = slots = [sim.deposit(name, 5) for name in ("alice", "bob", "carol")]
    synced, fetched = [], []
    sync, get_witness = Wallet.sync, sim.operator.get_witness

    def counted_sync(wallet, slot, witness):
        synced.append(slot)
        return sync(wallet, slot, witness)

    def counted_witness(slot, number):
        fetched.append((slot, number))
        return get_witness(slot, number)

    monkeypatch.setattr(Wallet, "sync", counted_sync)
    monkeypatch.setattr(sim.operator, "get_witness", counted_witness)

    def watch():
        synced.clear()
        fetched.clear()
        sim.run_watchers()
        return sorted(synced), sorted(fetched)

    assert watch() == ([], [])  # a deposit starts at the tip
    assert settled_transfer(sim, "alice", a, "bob")  # 1000: Bob's log covers it
    assert watch() == (slots, [(b, 1000), (c, 1000)])
    sim.commit_block()
    assert watch() == ([], []) and watch() == ([], [])
    _, receipt = sim.transfer("bob", a, "carol")
    assert receipt.accepted and sim.commit_block().number == 3000
    sim.operator.withhold(b, 3000)
    assert watch() == (slots, [(a, 3000), (b, 3000), (c, 3000)])
    assert watch() == (slots, [(b, 3000)])  # in full again: the last pass failed
    sim.operator.withheld.clear()
    assert watch() == (slots, [(b, 3000)])
    assert watch() == ([], [])


# -- verified checkpoints --


def handed_over(sim, sender, slot, receiver):
    """Transfer and commit, then return the history the sender would hand
    over, leaving the sender's copy in place."""
    _, receipt = sim.transfer(sender, slot, receiver)
    assert receipt.accepted
    sim.commit_block()
    src = sim.actor(sender)
    src.sync(slot, sim.operator.get_witness)
    h = src.coins[slot]
    return CoinHistory(h.slot, h.deposit_block, dict(h.incl), dict(h.excl))


def log_state(wallet, slot):
    """Copies of a wallet's log maps for a coin, and its mark."""
    log = wallet.logs[slot]
    return dict(log.incl), dict(log.excl), wallet.marks[slot]


def test_rejected_delivery_keeps_checkpoints():
    """A refused delivery leaves the receiver's log and mark as they were,
    the entries ``sync`` appended past the mark included."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    assert settled_transfer(sim, "bob", slot, "carol")
    bob, eve = sim.actor("bob"), sim.actor("eve")
    kept = log_state(bob, slot)
    assert max(kept[0]) > kept[2].block  # Bob's own spend, synced, not verified

    to_dave = handed_over(sim, "carol", slot, "dave")
    to_bob = to_dave.past(bob.marks[slot].block)
    assert not bob.receive_coin(to_bob)  # valid, but ends at Dave
    newest = max(to_bob.incl)
    itx = to_bob.incl[newest]
    to_bob.incl[newest] = to_dave.incl[newest] = replace(itx, proof=flip(itx.proof))
    verdict = bob.receive_coin(to_bob)
    assert not verdict and verdict.reason is Reason.BAD_INCLUSION_PROOF
    assert not eve.receive_coin(to_dave)
    assert log_state(bob, slot) == kept and eve.logs == eve.marks == {}


def test_a_returning_coin_names_its_own_deposit_block():
    """A history handed to a wallet with a mark is placed by the mark, not
    by the deposit block it names: naming a later one cuts no block between
    the mark and it out of the partition.  Rose pays Sam, Sam pays Tom; a
    colluding operator re-includes Rose's spend, then Sam's spend of it back
    to Rose, and Sam hands Rose those blocks as a coin deposited at the
    first, or at an empty block before it.  Rose refuses both as a gap in
    the partition and keeps her log and mark."""
    sim = make_sim()
    slot = sim.deposit("dave", 5)
    assert settled_transfer(sim, "dave", slot, "rose")
    to_sam, _ = sim.transfer("rose", slot, "sam")
    sim.commit_block()
    assert sim.deliver("rose", slot, "sam")
    assert settled_transfer(sim, "sam", slot, "tom")
    empty = sim.commit_block().number
    assert sim.operator.inject_raw_tx(to_sam)
    again = sim.commit_block().number
    to_rose = make_transfer_tx(sim.actor("sam").signer, slot, again, sim.address("rose"))
    assert sim.operator.inject_raw_tx(to_rose)
    back = sim.commit_block().number
    rose, witness = sim.actor("rose"), sim.operator.get_witness
    kept = log_state(rose, slot)
    incl = {n: witness(slot, n) for n in (again, back)}
    for forged in (
        CoinHistory(slot, again, incl),
        CoinHistory(slot, empty, incl, {empty: witness(slot, empty)}),
    ):
        verdict = rose.receive_coin(forged)
        assert not verdict and verdict.reason is Reason.PARTITION_GAP
    assert log_state(rose, slot) == kept and not rose.owns(slot)
    assert sim.ledger.true_owner(slot) == sim.address("tom")


def test_returning_coin_with_a_corrupted_checkpointed_block_is_rejected():
    """A returning receiver takes only the blocks past its mark: a whole
    history, honest or with a block Bob verified corrupted, is refused for
    its extra blocks and changes nothing; the suffix ``deliver`` hands over
    is accepted."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    bob = sim.actor("bob")
    mark = bob.marks[slot]
    assert settled_transfer(sim, "bob", slot, "carol")
    kept = log_state(bob, slot)

    history = handed_over(sim, "carol", slot, "bob")
    corrupted = history.past(0)
    itx = corrupted.incl[mark.block]  # already verified by Bob
    corrupted.incl[mark.block] = replace(itx, proof=flip(itx.proof))
    verified = sorted(b for b in history.incl.keys() | history.excl.keys() if b <= mark.block)
    for offered in (history, corrupted):
        verdict = bob.receive_coin(offered)
        assert verdict.reason is Reason.PARTITION_GAP
        assert verdict.detail == f"missing=[] extra={verified}"
        assert log_state(bob, slot) == kept and not bob.owns(slot)

    # what Bob synced past his mark is replaced by the delivery, not merged
    log = bob.logs[slot]
    spent = max(log.incl)  # Bob's spend to Carol, synced when he handed it over
    log.excl[spent] = IncludedTx(None, spent, sim.params.smt_config.empty_proof)
    assert sim.deliver("carol", slot, "bob")  # the suffix past Bob's mark goes through
    assert bob.coins[slot] is bob.logs[slot] is log
    assert log == sim.actor("carol").logs[slot] and list(log.excl) == sorted(log.excl)
    assert bob.marks[slot].block == max(sim.contract.roots) == log.last_block()


def test_valid_tip_walks_from_the_stored_mark():
    """Bob's tip is walked from his mark, never from the deposit: entries
    at or below the mark are not read again, so losing them changes
    nothing, while the walk from the deposit needs them and, without them,
    stops at the deposit."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    bob = sim.actor("bob")
    mine = bob.last_inclusion(slot)
    assert mine == bob.marks[slot].tip and mine.tx.new_owner == bob.address
    log = bob.coins[slot]
    log.incl.clear()
    assert bob.last_inclusion(slot) == mine
    deposit = sim.contract.coins[slot].deposit
    assert valid_tip(log, sim.keyring, deposit) is deposit != mine


def test_a_returning_receiver_is_handed_only_the_new_blocks(monkeypatch):
    """One coin handed round-robin among 4 wallets: a first-time receiver
    is handed every block past the deposit, and after the first lap every
    receiver the 4 blocks since it verified the coin, at hand-off 16 as at
    hand-off 400; each keeps the whole log, from the deposit entry."""
    sim = make_sim()
    names = ["w0", "w1", "w2", "w3"]
    slot = sim.deposit(names[0], 5)
    handed = []
    receive = Wallet.receive_coin

    def counted(wallet, history):
        handed.append(len(history.incl) + len(history.excl))
        return receive(wallet, history)

    monkeypatch.setattr(Wallet, "receive_coin", counted)
    for k in range(1, 401):
        assert settled_transfer(sim, names[(k - 1) % 4], slot, names[k % 4])
    assert handed[:3] == [1, 2, 3]  # first-time receivers: every block past the deposit
    assert handed[16 - 1] == handed[400 - 1] == 4 and set(handed[3:]) == {4}
    log = sim.actor(names[0]).coins[slot]
    assert len(log.incl) == 401 and log.last_block() == max(sim.contract.roots)


def test_no_two_wallets_share_a_log_map():
    """Deliveries hand over fresh maps and receivers append into their own,
    so no two wallets ever hold the same ``incl`` or ``excl`` dict."""
    sim = make_sim()
    rng = random.Random(3)
    names = ["alice", "bob", "carol", "dave", "erin"]
    holder = {sim.deposit(name, 5): name for name in names for _ in range(2)}
    for _ in range(80):
        slot = rng.choice(sorted(holder))
        receiver = rng.choice([n for n in names if n != holder[slot]])
        assert settled_transfer(sim, holder[slot], slot, receiver)
        holder[slot] = receiver
        maps = [
            id(entries)
            for wallet in sim.wallets.values()
            for log in wallet.logs.values()
            for entries in (log.incl, log.excl)
        ]
        assert len(maps) == len(set(maps))


def reordered(history, first):
    """The same history with the inclusion at block ``first`` moved to the
    front of its map: a valid history, in no particular order."""
    incl = {first: history.incl[first], **history.incl}
    return CoinHistory(history.slot, history.deposit_block, incl, dict(history.excl))


def test_a_history_in_any_order_is_logged_in_block_order():
    """Dave is handed a valid history whose inclusions are out of order and
    keeps his own copy in block order, so a stale exit of Bob's is still
    challenged with Bob's own spend; what Dave was handed is not his log."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    for sender, receiver in (("alice", "bob"), ("bob", "carol")):
        assert settled_transfer(sim, sender, slot, receiver)
    history = handed_over(sim, "carol", slot, "dave")
    sim.actor("carol").coins.pop(slot)
    received, spent = sorted(history.incl)[1:3]  # Alice to Bob, Bob to Carol
    dave = sim.actor("dave")
    offered = reordered(history.past(dave.mark(slot).block), spent)
    assert list(offered.incl) != sorted(offered.incl)
    assert dave.receive_coin(offered)
    log = dave.logs[slot]
    assert list(log.incl) == sorted(log.incl) and list(log.excl) == sorted(log.excl)
    assert log.incl is not offered.incl and log.excl is not offered.excl
    offered.incl.clear()
    assert log == history and dave.marks[slot].block == max(sim.contract.roots)

    sim.exit_with("bob", slot, sim.contract.coins[slot].deposit_block, received)
    actions = dave.watch_and_challenge()
    assert [(a.kind, a.ok) for a in actions] == [("after", True)]
    assert slot not in sim.contract.exits


def test_out_of_order_entries_do_not_end_a_history_at_the_receiver():
    """The spend to Bob at 3000 is not the coin's last: Bob spent it on to
    Dave at 4000 without ever verifying it.  Handed the blocks past his mark
    with 3000 last in the map, Bob still finds that the history ends at Dave."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    for sender, receiver in (("alice", "bob"), ("bob", "carol")):
        assert settled_transfer(sim, sender, slot, receiver)
    _, receipt = sim.transfer("carol", slot, "bob")  # never delivered
    assert receipt.accepted
    to_bob = sim.commit_block().number
    bob = sim.actor("bob")
    stolen = make_transfer_tx(bob.signer, slot, to_bob, sim.address("dave"))
    assert sim.operator.submit_tx(stolen).accepted
    sim.commit_block()
    carol = sim.actor("carol")
    carol.sync(slot, sim.operator.get_witness)
    kept = log_state(bob, slot)

    offered = carol.coins[slot].past(bob.mark(slot).block)
    out_of_order = reordered(offered, to_bob)
    out_of_order.incl[to_bob] = out_of_order.incl.pop(to_bob)  # now last
    for history in (offered, out_of_order):
        verdict = bob.receive_coin(history)
        assert not verdict and verdict.detail == "history does not end at this wallet"
        assert log_state(bob, slot) == kept and not bob.owns(slot)


@pytest.fixture
def counts(monkeypatch):
    """Counts of hashes, signature recoveries and proof verifications."""
    counts = Counter()
    hash_pair, recover, verify = smt.hash_pair, Keyring.recover, smt.verify

    def counted_hash_pair(left, right):
        counts["hashes"] += 1
        return hash_pair(left, right)

    def counted_recover(keyring, digest, sig):
        counts["recoveries"] += 1
        return recover(keyring, digest, sig)

    def counted_verify(*args):
        counts["verifies"] += 1
        return verify(*args)

    monkeypatch.setattr(smt, "hash_pair", counted_hash_pair)
    monkeypatch.setattr(Keyring, "recover", counted_recover)
    monkeypatch.setattr(smt, "verify", counted_verify)
    return counts


def test_handoff_cost_does_not_grow_with_coin_age(counts):
    """A receiver verifies only the blocks it has not seen: one coin at
    depth 64, handed round-robin among 4 wallets, costs as many hashes and
    signature recoveries at hand-off 16 as at hand-off 64."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    names = ["w0", "w1", "w2", "w3"]
    slot = sim.deposit(names[0], 5)
    cost = {}
    for k in range(1, 65):
        counts.clear()
        assert settled_transfer(sim, names[(k - 1) % 4], slot, names[k % 4])
        cost[k] = (counts["hashes"], counts["recoveries"])
    # per hand-off: a one-leaf block build and the four inclusion proofs the
    # receiver has not verified, one hash each, since a block of one coin
    # commits as its lone leaf's digest at any depth; those four signatures
    # plus the operator's intake of the new spend, which its ledger's replay
    # trusts
    assert cost[16] == cost[64] == (5, 5)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_sync_costs_one_witness_per_new_block_and_no_hash(monkeypatch, counts, k):
    """A holder's ``sync`` over k new blocks fetches k witnesses, one a
    block, and checks none: no ``smt.hash_pair``, no ``Keyring.recover`` and
    no SHA-256 in ``core``.  Alice's coin stays put at depth 64 while other
    coins move, alone in one block (her exclusion names a neighbour) and
    three at a time in the next; an empty block between them is not listed,
    so it costs nothing.  A second ``sync`` fetches nothing."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    slot = sim.deposit("alice", 5)
    names = ["bob", "carol", "dave"]
    holders = {sim.deposit(name, 5): name for name in names}
    for j in range(k):
        moves = [
            (holders[other], other, names[(names.index(holders[other]) + 1) % 3])
            for other in list(holders)[: 1 if j % 2 == 0 else 3]
        ]
        for sender, other, receiver in moves:
            sim.transfer(sender, other, receiver)
        sim.commit_block()
        for sender, other, receiver in moves:
            assert sim.deliver(sender, other, receiver).accepted
            holders[other] = receiver
        sim.commit_block()  # no transaction: the contract does not list it
    alice, get_witness = sim.actor("alice"), sim.operator.get_witness
    blocks = sim.contract.view.history_blocks(sim.contract.coins[slot].deposit_block)
    assert len(blocks) == k
    fetched, sha256s = [], []

    def counted_witness(coin, number):
        fetched.append((coin, number))
        return get_witness(coin, number)

    def sha256(data=b""):
        sha256s.append(data)
        return hashlib.sha256(data)

    counts.clear()
    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    alice.sync(slot, counted_witness)
    assert fetched == [(slot, number) for number in blocks]
    assert list(alice.coins[slot].excl) == blocks
    alice.sync(slot, counted_witness)
    assert len(fetched) == k and not counts and not sha256s


def test_handoff_bytes_are_the_sum_of_closed_forms(monkeypatch):
    """What a hand-off ships and what the receiver stores, in bytes: one
    coin at depth 64, handed round-robin among 4 wallets, one block each.
    Each block holds only the coin, so its proof sets no bit: a bitfield of
    width 0, no bytes at all.  An entry is its block number, the kind byte,
    the transaction (slot, parent block, owner and, on a spend, the
    signature) and the proof; a history adds its slot, its deposit block and
    its two entry counts."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    config = sim.contract.config
    names = ["w0", "w1", "w2", "w3"]
    slot = sim.deposit(names[0], 5)
    deposit_block = sim.contract.coins[slot].deposit_block
    delivered = []
    receive = Wallet.receive_coin

    def recorded(wallet, history):
        delivered.append(len(history.encode(config)))
        return receive(wallet, history)

    monkeypatch.setattr(Wallet, "receive_coin", recorded)
    def uint_size(n):
        return len(smt.uint(n))

    def entry(blk, parent):
        signature = core.SIG_SIZE if parent else 0
        proof = 0  # the width of a bitfield with no bit set
        return (uint_size(blk) + 1 + uint_size(slot) + uint_size(parent) + core.ADDRESS_SIZE
                + signature + proof)

    def history(inclusions):
        head = uint_size(slot) + uint_size(deposit_block) + uint_size(len(inclusions)) + uint_size(0)
        return head + sum(entry(blk, parent) for blk, parent in inclusions)

    chain = [(deposit_block, 0)]  # (block, parent block) of each inclusion
    verified = {}  # inclusions past the deposit each wallet has verified
    for k in range(1, 41):
        receiver = names[k % 4]
        assert settled_transfer(sim, names[(k - 1) % 4], slot, receiver)
        chain.append((sim.contract.operator_blocks[-1], chain[-1][0]))
        # a first-time receiver gets every inclusion past the deposit, a
        # returning one the 4 past its mark
        suffix = chain[verified.get(receiver, 1):]
        assert len(suffix) == (k if k < 4 else 4)
        assert len(delivered) == k and delivered[-1] == history(suffix)
        verified[receiver] = len(chain)
        assert len(sim.actor(receiver).logs[slot].encode(config)) == history(chain)
    assert uint_size(chain[-1][0]) == 3 > uint_size(chain[1][0])  # block numbers grew a byte


def test_one_coin_blocks_leave_the_memo_empty():
    """Every proof in a block of one coin has no sibling to fold (``low`` is
    the depth), so it is compared with the root at once and adds no memo
    key: after a hand-off chain of such blocks no wallet holds a key."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    names = ["w0", "w1", "w2", "w3"]
    slot = sim.deposit(names[0], 5)
    for k in range(1, 17):
        assert settled_transfer(sim, names[(k - 1) % 4], slot, names[k % 4])
    assert [w._known for w in sim.wallets.values()] == [set()] * 4


@pytest.mark.parametrize("others", [0, 50])
def test_handoff_cost_does_not_grow_with_other_deposits(counts, others):
    """A fresh receiver starts at the contract's record of the coin's
    deposit and verifies one proof per listed operator block since, here
    each holding a spend of another coin; other coins' deposit blocks,
    interleaved with those operator blocks, and blocks with no transaction,
    which the contract does not list, cost it nothing."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    other = sim.deposit("carol", 1)
    empty = []
    for sender, receiver in (("carol", "dave"), ("dave", "carol")):
        for _ in range(others // 2):
            sim.deposit("dave", 1)
        assert settled_transfer(sim, sender, other, receiver)
        empty.append(sim.commit_block().number)
    assert not set(empty) & set(sim.contract.operator_blocks)
    history = handed_over(sim, "alice", slot, "bob").past(sim.actor("bob").mark(slot).block)
    assert not set(empty) & set(history.excl)
    counts.clear()
    assert sim.actor("bob").receive_coin(history)
    assert counts["verifies"] == 3


def test_a_hand_off_checks_one_signature_per_handed_inclusion(monkeypatch, counts):
    """The many-coins shape at depth 64: 64 coins in slots 0-63, slot i
    deposited by wallet i % 8, each moved once a block to another of the 8
    wallets drawn from a fixed seed, for 7 blocks (448 hand-offs).  Counted
    per hand-off from this run, its transfer and its delivery: the
    operator's intake recovers the spend's signer and the receiver each
    handed inclusion's, so ``Keyring.recover`` runs 1 + the handed
    inclusions; ``core`` takes SHA-256 for the spend's digest, its signature
    and the intake's check, then one for each handed inclusion's check, so
    3 + the handed inclusions.  Committing a block costs neither."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    names = [f"w{i}" for i in range(8)]
    for name in names:
        sim.actor(name)  # key generation hashes too: keep it out of the counts
    holder = {slot: names[slot % 8] for slot in range(64)}
    for slot, name in holder.items():
        assert sim.deposit(name, 5) == slot
    sha256s, handed = [], []
    receive = Wallet.receive_coin

    def sha256(data=b""):
        sha256s.append(data)
        return hashlib.sha256(data)

    def recorded(wallet, history):
        handed.append(len(history.incl))
        return receive(wallet, history)

    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    monkeypatch.setattr(Wallet, "receive_coin", recorded)

    def spent(step):
        counts.clear()
        sha256s.clear()
        step()
        return counts["recoveries"], len(sha256s)

    rng, costs = random.Random(0), []
    for _ in range(7):
        moves = []
        for slot, sender in holder.items():
            receiver = rng.choice([n for n in names if n != sender])
            moves.append((sender, slot, receiver))
            holder[slot] = receiver
        transfers = [spent(lambda: sim.transfer(*move)) for move in moves]
        assert spent(sim.commit_block) == (0, 0)
        for move, (recoveries, sha256_calls) in zip(moves, transfers):
            delivered = spent(lambda: sim.deliver(*move))
            assert sim.actor(move[2]).owns(move[1])
            inclusions = handed[-1]
            costs.append((recoveries + delivered[0] - inclusions, sha256_calls + delivered[1] - inclusions))
    assert len(handed) == len(costs) == 448 and set(costs) == {(1, 3)}


def coins_moved_together(sim, sender, receiver, n):
    """Deposit ``n`` coins to ``sender``, move them all to ``receiver`` in
    one block, and return the histories the sender hands over: the entries
    past each deposit."""
    slots = [sim.deposit(sender, 5) for _ in range(n)]
    for slot in slots:
        _, receipt = sim.transfer(sender, slot, receiver)
        assert receipt.accepted
    sim.commit_block()
    histories = []
    for slot in slots:
        sim.actor(sender).sync(slot, sim.operator.get_witness)
        histories.append(sim.actor(sender).coins[slot].past(sim.actor(receiver).mark(slot).block))
    return histories


def test_coins_that_share_a_block_share_its_upper_path(counts):
    """Eight coins in slots 0-7 of one depth-64 block: Bob's first delivery
    hashes the block proof's 64 levels; every later one hashes only the 3
    levels below the coins' common subtree.  Each audit starts at the
    contract's deposit record, which costs no hash.  Without the memo each
    costs 64."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    histories = coins_moved_together(sim, "alice", "bob", 8)
    bob = sim.actor("bob")
    cost = []
    for history in histories:
        counts.clear()
        assert bob.receive_coin(history)
        cost.append(counts["hashes"])
    assert cost == [64] + [3] * 7
    coin = sim.contract.coins[histories[-1].slot]
    counts.clear()
    mark = Mark(coin.deposit_block, coin.deposit)
    assert verify_history(histories[-1], sim.contract.view, mark)
    assert counts["hashes"] == 64


@pytest.mark.parametrize("depth", [16, 64])
@pytest.mark.parametrize("k", [1, 2, 8, 64])
def test_a_receive_costs_its_closed_form(monkeypatch, counts, k, depth):
    """The ``smt.hash_pair`` and ``Keyring.recover`` calls of each
    ``Wallet.receive_coin``, from the handed entries, the occupancy and the
    depth.  Alice deposits k coins, in slots 0 to k - 1 (k a power of two,
    2^h), and Dave one more, in slot k.  Every block moves either all k
    coins, so they fill its subtree of height h, or Dave's coin alone:

    1. Alice pays Bob each coin: Bob is a first-time receiver, handed one
       inclusion;
    2. Dave's coin moves alone: one exclusion in every later history;
    3. Bob pays Carol, a first-time receiver handed two inclusions and that
       exclusion;
    4. Carol pays Bob back: Bob returns, handed the last two inclusions and
       the exclusion past his mark.

    Each handed inclusion recovers one signer.  Its proof folds h present
    siblings and depth - h default levels with a cold memo; with a warm one,
    holding the block's path above the coins' subtree from the receiver's
    previous coin, it folds h.  A coin alone in its block (k = 1) commits
    as its lone digest, one hash, memo or not.  An exclusion in Dave's block
    names his coin as its neighbour, one hash."""
    sim = Simulation(params=ChainParams(smt_depth=depth))
    for name in ("alice", "bob", "carol", "dave", "erin"):
        sim.actor(name)  # key generation hashes too: keep it out of the counts
    slots = [sim.deposit("alice", 5) for _ in range(k)]
    other = sim.deposit("dave", 5)
    received = []
    receive = Wallet.receive_coin

    def counted(wallet, history):
        counts.clear()
        verdict = receive(wallet, history)
        received.append((len(history.incl), len(history.excl), counts["hashes"], counts["recoveries"]))
        return verdict

    monkeypatch.setattr(Wallet, "receive_coin", counted)
    for sender, receiver in (("alice", "bob"), ("bob", "carol"), ("carol", "bob")):
        for slot in slots:
            sim.transfer(sender, slot, receiver)
        sim.commit_block()
        for slot in slots:
            assert sim.deliver(sender, slot, receiver).accepted
        if sender == "alice":  # Dave's spend, in a block of its own, is never delivered
            sim.transfer("dave", other, "erin")
            sim.commit_block()

    h = k.bit_length() - 1

    def closed_form(inclusions, exclusions, warm):
        per_inclusion = 1 if k == 1 else h if warm else depth
        return inclusions, exclusions, inclusions * per_inclusion + exclusions, inclusions

    expected = [
        closed_form(inclusions, exclusions, warm)
        for inclusions, exclusions in ((1, 0), (2, 1), (2, 1))  # Bob, Carol, Bob again
        for warm in [False] + [True] * (k - 1)
    ]
    assert received == expected


def test_memo_does_not_vouch_for_a_path_tampered_above_the_shared_subtree():
    """Bob's memo holds the block's upper path from coin 0; coin 1's proof
    for that block, with a default sibling above the coins' subtree
    replaced, is refused, and the genuine one is then accepted."""
    sim = Simulation(params=ChainParams(smt_depth=64))
    first, second = coins_moved_together(sim, "alice", "bob", 2)
    bob = sim.actor("bob")
    assert bob.receive_coin(first) and bob._known
    blk = max(second.incl)
    itx = second.incl[blk]
    assert itx.proof.bitfield == 1
    sibs = siblings_of(itx.proof, 64)
    sibs[5] = sibs[0]
    forged = second.past(0)
    forged.incl[blk] = IncludedTx(itx.tx, blk, proof_from_siblings(sibs))
    verdict = bob.receive_coin(forged)
    assert verdict.reason is Reason.BAD_INCLUSION_PROOF and f"block {blk}" in verdict.detail
    assert bob.receive_coin(second)


@pytest.mark.parametrize("forgery", ["root", "tree"])
def test_deposit_entry_under_an_operator_block_is_refused(forgery):
    """An operator may commit any root: the hash of a coin's deposit
    transaction, or a tree holding that transaction.  A history that
    claims such an operator block as the coin's deposit block is refused as
    a gap in the partition, which starts at the contract's deposit record;
    the contract too refuses the hash-root entry."""
    sim = make_sim()
    slot = sim.deposit("alice", 5)
    assert settled_transfer(sim, "alice", slot, "bob")
    alice, carol = sim.actor("alice"), sim.actor("carol")
    dep = make_deposit_tx(slot, alice.address)
    if forgery == "root":
        fake = sim.contract.submit_block(sim.operator.address, dep.hash())
        entry = IncludedTx(dep, fake, sim.params.smt_config.empty_proof)
    else:
        sim.operator.inject_raw_tx(dep)
        entry = sim.commit_block().prove(slot)
        fake = entry.blk_number
    sim.operator.inject_raw_tx(make_transfer_tx(alice.signer, slot, fake, carol.address))
    spend = sim.commit_block().prove(slot)
    history = CoinHistory(slot, fake, {fake: entry, spend.blk_number: spend})
    verdict = carol.receive_coin(history)
    assert verdict.reason is Reason.PARTITION_GAP and not carol.owns(slot)
    if forgery == "root":
        with pytest.raises(BadProof):
            sim.contract.start_exit(carol.address, slot, entry, spend)


def test_a_handoff_hashes_each_spend_once(monkeypatch):
    """One round-robin hand-off at depth 64 costs 7 SHA-256 calls in
    ``core``: the spend's digest, its signature, and five recoveries (the
    operator's intake, which its ledger's replay trusts, and the receiver's
    four)."""
    calls = Counter()

    def sha256(data=b""):
        calls["sha256"] += 1
        return hashlib.sha256(data)

    sim = Simulation(params=ChainParams(smt_depth=64))
    names = ["w0", "w1", "w2", "w3"]
    slot = sim.deposit(names[0], 5)
    for k in range(1, 9):
        assert settled_transfer(sim, names[(k - 1) % 4], slot, names[k % 4])
    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    for k in range(9, 25):
        calls.clear()
        assert settled_transfer(sim, names[(k - 1) % 4], slot, names[k % 4])
        assert calls["sha256"] == 7, k
