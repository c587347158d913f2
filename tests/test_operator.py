"""Block producer: the checked intake and the ownership ledger it reads,
the Byzantine capabilities (raw inclusion, withholding), witness service."""

import random

import pytest

from plasma_cash.core import Keyring, PlasmaBlock, Transaction, make_deposit_tx, make_transfer_tx
from plasma_cash.errors import UnknownBlock, WitnessUnavailable
from plasma_cash.operator_node import PlasmaOperator, ShadowLedger
from plasma_cash.smt import SmtConfig, SparseMerkleTree

CONFIG = SmtConfig(depth=16)


def make_operator():
    keyring = Keyring()
    op_signer = keyring.new_signer("operator")
    operator = PlasmaOperator(op_signer.address, keyring, CONFIG)
    return keyring, operator


def seed_deposit(keyring, operator, slot=0):
    owner = keyring.new_signer("alice")
    operator.ledger.on_deposit(slot, owner.address, 1)
    return owner


def test_honest_accepts_valid_spend():
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob = keyring.new_signer("bob")
    receipt = operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address))
    assert receipt.accepted
    block = operator.produce_block(1000)
    assert 0 in block.txs and block.txs[0].new_owner == bob.address


def test_honest_rejections():
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob = keyring.new_signer("bob")
    mallory = keyring.new_signer("mallory")

    assert operator.submit_tx(make_transfer_tx(alice, 5, 1, bob.address)).reason == "unknown coin"
    assert (
        operator.submit_tx(make_transfer_tx(alice, 0, 7, bob.address)).reason
        == "parent is not the last inclusion block"
    )
    assert (
        operator.submit_tx(make_transfer_tx(mallory, 0, 1, mallory.address)).reason
        == "signer does not own the coin"
    )
    broken = Transaction(0, 1, bob.address, b"\x00" * 5)
    assert operator.submit_tx(broken).reason == "malformed signature"

    assert operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address)).accepted
    # a second same-block spend conflicts regardless of validity
    assert (
        operator.submit_tx(make_transfer_tx(alice, 0, 1, mallory.address)).reason
        == "slot already spent this block"
    )


def test_ownership_advances_with_blocks():
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob = keyring.new_signer("bob")
    operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address))
    operator.produce_block(1000)
    # Alice's coin is gone; Bob spends from the new inclusion block
    assert not operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address)).accepted
    assert operator.submit_tx(make_transfer_tx(bob, 0, 1000, alice.address)).accepted


def test_raw_injection_refuses_a_slot_outside_the_tree():
    """A raw transaction of a slot outside [0, capacity) is refused with a
    receipt, not queued: it would jam every later block.  An honest spend
    then still commits."""
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob = keyring.new_signer("bob")
    for slot in (CONFIG.capacity, -1):
        receipt = operator.inject_raw_tx(Transaction(slot, 1, bob.address, bytes(52)))
        assert not receipt.accepted and receipt.reason == "slot out of range"
    assert operator.pending == {}
    assert operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address)).accepted
    assert operator.produce_block(1000).txs[0].new_owner == bob.address


def test_raw_injection_skips_ownership_checks():
    keyring, operator = make_operator()
    seed_deposit(keyring, operator)
    mallory = keyring.new_signer("mallory")
    receipt = operator.inject_raw_tx(make_transfer_tx(mallory, 0, 1, mallory.address))
    assert receipt.accepted
    # only a second transaction for a slot already in this block is refused
    again = operator.inject_raw_tx(make_transfer_tx(mallory, 0, 7, mallory.address))
    assert again.reason == "slot already spent this block"


def test_injected_transactions_never_move_the_ledger():
    """A deposit-shaped transaction at an operator block mints nothing, and
    a forged spend of it moves nothing: the owner by the ledger, which the
    intake reads, is still the depositor, whose next spend is accepted."""
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    mallory = keyring.new_signer("mallory")
    assert operator.inject_raw_tx(make_deposit_tx(0, mallory.address)).accepted
    operator.produce_block(1000)
    assert operator.inject_raw_tx(make_transfer_tx(mallory, 0, 1000, mallory.address)).accepted
    operator.produce_block(2000)
    assert operator.ledger.true_owner(0) == alice.address
    assert operator.submit_tx(make_transfer_tx(mallory, 0, 1000, alice.address)).reason == (
        "parent is not the last inclusion block"
    )
    assert operator.submit_tx(make_transfer_tx(alice, 0, 1, mallory.address)).accepted
    operator.produce_block(3000)
    assert operator.ledger.true_owner(0) == mallory.address


def test_intake_refuses_what_raw_injection_includes():
    keyring, operator = make_operator()
    seed_deposit(keyring, operator)
    mallory = keyring.new_signer("mallory")
    forged = make_transfer_tx(mallory, 0, 1, mallory.address)
    # the normal intake still refuses it; injection bypasses validation
    assert not operator.submit_tx(forged).accepted
    assert operator.inject_raw_tx(forged).accepted
    assert operator.produce_block(1000).txs[0] == forged


def checked_spends(ledger):
    """Record every transaction ``ledger`` checks, in the returned list."""
    checked, spend_fault = [], ledger.spend_fault

    def recorded(tx):
        checked.append(tx)
        return spend_fault(tx)

    ledger.spend_fault = recorded
    return checked


def test_ledger_replay_checks_every_spend_intake_did_not():
    """A block holds a spend the intake accepted, an injected forgery and an
    injected double spend of other coins.  The ledger checks the two
    injected ones only, and ends with the owners of a replay that checks
    every transaction."""
    keyring, operator = make_operator()
    alice, bob, mallory = (keyring.new_signer(name) for name in ("alice", "bob", "mallory"))
    reference = ShadowLedger(keyring)
    for number in (1, 2, 3):
        for ledger in (operator.ledger, reference):
            ledger.on_deposit(number - 1, alice.address, number)
    assert operator.submit_tx(make_transfer_tx(alice, 2, 3, bob.address)).accepted
    blocks = [operator.produce_block(1000)]
    assert operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address)).accepted
    assert operator.inject_raw_tx(make_transfer_tx(mallory, 1, 2, mallory.address)).accepted
    assert operator.inject_raw_tx(make_transfer_tx(alice, 2, 3, mallory.address)).accepted
    checked = checked_spends(operator.ledger)
    blocks.append(operator.produce_block(2000))
    assert checked == [blocks[1].txs[1], blocks[1].txs[2]]
    for block in blocks:
        reference.on_block(block)
    assert operator.ledger.owners == reference.owners == {
        0: (bob.address, 2000), 1: (alice.address, 2), 2: (bob.address, 1000)
    }


def test_ledger_trusts_intake_only_for_its_spend_and_entry():
    """The ledger skips its check only for the very transaction the intake
    accepted, and only while the entry it was checked against stands: a
    different transaction of that slot, or the same one after the coin's
    entry changed, is checked again and here refused."""
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob, mallory = keyring.new_signer("bob"), keyring.new_signer("mallory")
    spend = make_transfer_tx(alice, 0, 1, bob.address)
    assert operator.submit_tx(spend).accepted
    forged = Transaction(spend.slot, spend.parent_block, mallory.address, spend.signature)
    operator.ledger.on_block(PlasmaBlock.build(1000, {0: forged}, CONFIG))
    assert operator.ledger.owners[0] == (alice.address, 1)
    operator.pending = {}
    assert operator.submit_tx(spend).accepted
    operator.ledger.on_deposit(0, mallory.address, 1)  # the entry is replaced
    operator.produce_block(2000)
    assert operator.ledger.owners[0] == (mallory.address, 1)


def test_empty_block_root_is_defaults_chain():
    _, operator = make_operator()
    block = operator.produce_block(1000)
    assert block.root == CONFIG.defaults[CONFIG.depth]


def test_block_root_matches_independent_tree_rebuild():
    keyring = Keyring()
    op_signer = keyring.new_signer("operator")
    config = SmtConfig(depth=64)
    operator = PlasmaOperator(op_signer.address, keyring, config)
    alice = keyring.new_signer("alice")
    rng = random.Random(0)
    slots = set()
    while len(slots) < 2378:
        slots.add(rng.getrandbits(64))
    for slot in slots:
        operator.ledger.on_deposit(slot, alice.address, 1)
    txs = {s: make_transfer_tx(alice, s, 1, alice.address) for s in slots}
    for tx in txs.values():
        assert operator.submit_tx(tx).accepted
    block = operator.produce_block(1000)
    oracle = SparseMerkleTree(config, {s: tx.hash() for s, tx in txs.items()})
    assert block.root == oracle.root


def test_witness_service_round_trip():
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    bob = keyring.new_signer("bob")
    operator.submit_tx(make_transfer_tx(alice, 0, 1, bob.address))
    operator.produce_block(1000)
    incl = operator.get_witness(0, 1000)
    assert incl.tx is not None and incl.tx.new_owner == bob.address
    assert operator.get_witness(5, 1000).tx is None
    with pytest.raises(UnknownBlock):
        operator.get_witness(0, 2000)


def test_withholding_is_targeted():
    keyring, operator = make_operator()
    alice = seed_deposit(keyring, operator)
    operator.submit_tx(make_transfer_tx(alice, 0, 1, alice.address))
    operator.produce_block(1000)
    operator.withhold(0, 1000)
    with pytest.raises(WitnessUnavailable):
        operator.get_witness(0, 1000)
    # other slots and blocks still served
    assert operator.get_witness(1, 1000).tx is None
    operator.produce_block(2000)
    assert operator.get_witness(0, 2000).tx is None
