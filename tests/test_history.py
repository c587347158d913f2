"""Coin-history building, verification, and the valid-tip walk."""

import random

import pytest

from plasma_cash.core import (
    IncludedTx,
    Keyring,
    PlasmaBlock,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
)
from plasma_cash.errors import MissingRoot
from plasma_cash.history import (
    CoinHistory,
    Reason,
    RootView,
    build_history,
    find_spend,
    valid_tip,
    verify_history,
)
from plasma_cash.smt import Proof, SmtConfig

CONFIG = SmtConfig(depth=16)


def flip(proof):
    """Corrupt one sibling digest."""
    sibs = list(proof.siblings)
    sibs[0] = bytes(b ^ 1 for b in sibs[0])
    return Proof(tuple(sibs))


class Chain:
    """Hand-built plasmachain: blocks keyed by number, witness access."""

    def __init__(self):
        self.keyring = Keyring()
        self.blocks = {}

    def signer(self, name):
        return self.keyring.new_signer(name)

    def add_block(self, number, txs):
        self.blocks[number] = PlasmaBlock.build(number, txs, CONFIG)

    def view(self):
        return RootView({n: b.root for n, b in self.blocks.items()})

    def witness(self, slot, number):
        return self.blocks[number].prove(slot)

    def history(self, slot, deposit_block):
        return build_history(slot, deposit_block, self.view(), self.witness)


@pytest.fixture
def chain():
    """Deposit at 1, spends at 1000 and 3000, idle at 2000 and 4000."""
    c = Chain()
    alice, bob, carol = c.signer("alice"), c.signer("bob"), c.signer("carol")
    c.add_block(1, {0: make_deposit_tx(0, alice.address)})
    c.add_block(1000, {0: make_transfer_tx(alice, 0, 1, bob.address)})
    c.add_block(2000, {})
    c.add_block(3000, {0: make_transfer_tx(bob, 0, 1000, carol.address)})
    c.add_block(4000, {})
    return c


def verify(chain, history):
    alice = chain.keyring.new_signer("alice")
    return verify_history(history, chain.view(), alice.address, chain.keyring, CONFIG)


def test_honest_history_accepted(chain):
    history = chain.history(0, 1)
    assert set(history.incl) == {1, 1000, 3000}
    assert set(history.excl) == {2000, 4000}
    assert verify(chain, history)


def test_deposit_only_history_accepted():
    c = Chain()
    alice = c.signer("alice")
    c.add_block(1, {0: make_deposit_tx(0, alice.address)})
    assert verify(c, c.history(0, 1))


def test_missing_root_raises(chain):
    history = chain.history(0, 1)
    history.excl[5000] = history.excl[4000]
    with pytest.raises(MissingRoot):
        verify(chain, history)


def test_partition_overlap_rejected(chain):
    history = chain.history(0, 1)
    history.excl[1000] = IncludedTx(None, 1000, chain.blocks[1000].tree.prove(0))
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.PARTITION_OVERLAP


def test_partition_gap_rejected(chain):
    history = chain.history(0, 1)
    del history.excl[2000]
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.PARTITION_GAP


def test_wrong_deposit_owner_rejected(chain):
    history = chain.history(0, 1)
    mallory = chain.keyring.new_signer("mallory")
    verdict = verify_history(history, chain.view(), mallory.address, chain.keyring, CONFIG)
    assert not verdict and verdict.reason is Reason.BAD_DEPOSIT_PROOF


def test_corrupt_deposit_proof_rejected(chain):
    history = chain.history(0, 1)
    dep = history.incl[1]
    history.incl[1] = IncludedTx(dep.tx, 1, flip(dep.proof))
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BAD_DEPOSIT_PROOF


def test_deposit_entry_for_another_block_rejected(chain):
    # the entry filed under the deposit block claims block 5 (no root)
    history = chain.history(0, 1)
    dep = history.incl[1]
    history.incl[1] = IncludedTx(dep.tx, 5, dep.proof)
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BAD_DEPOSIT_PROOF


def test_corrupt_inclusion_proof_rejected(chain):
    history = chain.history(0, 1)
    itx = history.incl[1000]
    history.incl[1000] = IncludedTx(itx.tx, 1000, flip(itx.proof))
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BAD_INCLUSION_PROOF


def test_double_spend_history_rejected(chain):
    # a second spend of the deposit included at 3000 breaks the parent chain
    alice = chain.keyring.new_signer("alice")
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(3000, {0: make_transfer_tx(alice, 0, 1, mallory.address)})
    history = chain.history(0, 1)
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BROKEN_PARENT_LINK


def test_forged_signature_rejected(chain):
    # Mallory signs a spend of Bob's coin with her own key
    mallory = chain.keyring.new_signer("mallory")
    forged = make_transfer_tx(mallory, 0, 1000, mallory.address)
    chain.add_block(3000, {0: forged})
    chain.blocks.pop(4000)
    verdict = verify(chain, chain.history(0, 1))
    assert not verdict and verdict.reason is Reason.BAD_SIGNATURE


def test_malformed_signature_rejected(chain):
    bob = chain.keyring.new_signer("bob")
    tx = make_transfer_tx(bob, 0, 1000, bob.address)
    broken = Transaction(tx.slot, tx.parent_block, tx.new_owner, b"\x00" * 10)
    chain.add_block(3000, {0: broken})
    chain.blocks.pop(4000)
    verdict = verify(chain, chain.history(0, 1))
    assert not verdict and verdict.reason is Reason.BAD_SIGNATURE


def test_corrupt_exclusion_rejected(chain):
    history = chain.history(0, 1)
    history.excl[2000] = IncludedTx(None, 2000, flip(history.excl[2000].proof))
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BAD_EXCLUSION_PROOF


def test_exclusion_over_occupied_slot_rejected(chain):
    # claiming the coin did not move at 1000 where it actually did
    history = chain.history(0, 1)
    del history.incl[1000]
    del history.incl[3000]  # would otherwise trip the parent link first
    history.excl[1000] = IncludedTx(None, 1000, chain.blocks[1000].tree.prove(0))
    history.excl[3000] = IncludedTx(None, 3000, chain.blocks[3000].tree.prove(0))
    verdict = verify(chain, history)
    assert not verdict and verdict.reason is Reason.BAD_EXCLUSION_PROOF


# -- serialization --


def test_history_binary_round_trip(chain):
    history = chain.history(0, 1)
    assert CoinHistory.decode(history.encode(CONFIG), CONFIG) == history


def test_history_json_round_trip(chain):
    history = chain.history(0, 1)
    assert CoinHistory.from_json(history.to_json(CONFIG), CONFIG) == history


# -- valid tip and sibling filtering --


def test_valid_tip_follows_ownership_chain(chain):
    carol = chain.keyring.new_signer("carol")
    tip = valid_tip(chain.history(0, 1), chain.keyring)
    assert tip.blk_number == 3000 and tip.tx.new_owner == carol.address


def test_valid_tip_skips_fraudulent_inclusions(chain):
    # operator includes Mallory's self-dealing forgery later on
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(5000, {0: make_transfer_tx(mallory, 0, 3000, mallory.address)})
    tip = valid_tip(chain.history(0, 1), chain.keyring)
    assert tip.blk_number == 3000


def test_valid_tip_takes_earliest_same_parent_spend(chain):
    # Bob double-spends his 1000 inclusion again at 5000
    bob = chain.keyring.new_signer("bob")
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(5000, {0: make_transfer_tx(bob, 0, 1000, mallory.address)})
    tip = valid_tip(chain.history(0, 1), chain.keyring)
    assert tip.blk_number == 3000  # the earlier spend of parent 1000 wins


def test_find_spend_checks_parent_signer_and_range(chain):
    alice, bob = chain.signer("alice"), chain.signer("bob")
    history = chain.history(0, 1)
    assert find_spend(history, 1, alice.address, chain.keyring).blk_number == 1000
    assert find_spend(history, 1, bob.address, chain.keyring) is None  # not the owner
    assert find_spend(history, 1000, bob.address, chain.keyring).blk_number == 3000
    assert find_spend(history, 1000, bob.address, chain.keyring, before=3000) is None
    assert find_spend(history, 2000, bob.address, chain.keyring) is None  # nothing spends 2000


# -- agreement with a block-replay oracle --


def replay_owner(chain, slot, deposit_block):
    """Independent ground truth: replay raw blocks, ignore invalid spends."""
    dep = chain.blocks[deposit_block].txs[slot]
    owner, last = dep.new_owner, deposit_block
    for number in sorted(chain.blocks):
        if number <= deposit_block:
            continue
        tx = chain.blocks[number].txs.get(slot)
        if tx is None or tx.parent_block != last:
            continue
        try:
            if chain.keyring.recover(tx.hash(), tx.signature) != owner:
                continue
        except Exception:
            continue
        owner, last = tx.new_owner, number
    return owner, last


def test_random_honest_chains_agree_with_replay(subtests=None):
    rng = random.Random(7)
    for trial in range(60):
        c = Chain()
        signers = [c.signer(f"s{trial}-{i}") for i in range(4)]
        owner = signers[0]
        c.add_block(1, {0: make_deposit_tx(0, owner.address)})
        last = 1
        number = 1000
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.6:
                nxt = rng.choice(signers)
                c.add_block(number, {0: make_transfer_tx(owner, 0, last, nxt.address)})
                owner, last = nxt, number
            else:
                c.add_block(number, {})
            number += 1000
        history = c.history(0, 1)
        verdict = verify_history(
            history, c.view(), signers[0].address, c.keyring, CONFIG
        )
        assert verdict, f"trial {trial}: {verdict.reason} {verdict.detail}"
        tip = valid_tip(history, c.keyring)
        oracle_owner, oracle_block = replay_owner(c, 0, 1)
        assert tip.tx.new_owner == oracle_owner
        assert tip.blk_number == oracle_block
