"""Transactions, blocks, and the recoverable signature scheme."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasma_cash.core import (
    Address,
    IncludedTx,
    Keyring,
    PlasmaBlock,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
)
from plasma_cash.errors import MalformedSignature
from plasma_cash.smt import SmtConfig


@pytest.fixture
def keyring():
    return Keyring()


def test_address_validation():
    Address(b"\x01" * 20)
    with pytest.raises(ValueError):
        Address(b"\x01" * 19)
    assert Address.from_hex("ab" * 20).hex == "ab" * 20


def test_tx_hash_excludes_signature(keyring):
    alice = keyring.new_signer("alice")
    bob = keyring.new_signer("bob")
    signed = make_transfer_tx(alice, 7, 1000, bob.address)
    unsigned = Transaction(slot=7, parent_block=1000, new_owner=bob.address)
    assert signed.hash() == unsigned.hash()
    assert signed.signature != b""


def test_tx_hash_depends_on_each_field(keyring):
    bob = keyring.new_signer("bob")
    base = Transaction(slot=7, parent_block=1000, new_owner=bob.address)
    variants = [
        Transaction(slot=8, parent_block=1000, new_owner=bob.address),
        Transaction(slot=7, parent_block=2000, new_owner=bob.address),
        Transaction(slot=7, parent_block=1000, new_owner=Address(b"\x09" * 20)),
    ]
    hashes = {base.hash()} | {v.hash() for v in variants}
    assert len(hashes) == 4


@settings(max_examples=200, deadline=None)
@given(
    slot=st.integers(0, 2**64 - 1),
    parent=st.integers(0, 2**64 - 1),
    owner=st.binary(min_size=20, max_size=20),
    sig=st.one_of(st.just(b""), st.binary(min_size=52, max_size=52)),
)
def test_tx_encode_round_trip(slot, parent, owner, sig):
    tx = Transaction(slot=slot, parent_block=parent, new_owner=Address(owner), signature=sig)
    assert Transaction.decode(tx.encode()) == tx


def test_deposit_tx_shape():
    dep = make_deposit_tx(3, Address(b"\x02" * 20))
    assert dep.is_deposit
    assert dep.parent_block == 0 and dep.signature == b""


def test_sign_and_recover(keyring):
    alice = keyring.new_signer("alice")
    digest = b"\x07" * 32
    sig = Keyring.sign(alice, digest)
    assert keyring.recover(digest, sig) == alice.address


def test_recover_rejects_replayed_signature(keyring):
    alice = keyring.new_signer("alice")
    sig = Keyring.sign(alice, b"\x01" * 32)
    recovered = keyring.recover(b"\x02" * 32, sig)
    assert recovered != alice.address


def test_forged_signature_recovers_to_other_address(keyring):
    alice = keyring.new_signer("alice")
    mallory = keyring.new_signer("mallory")
    digest = b"\x03" * 32
    # Mallory pastes Alice's address onto her own MAC
    forged = alice.address.id + Keyring.sign(mallory, digest)[20:]
    assert keyring.recover(digest, forged) != alice.address


def test_recovery_is_deterministic(keyring):
    garbage = b"\x0a" * 52
    assert keyring.recover(b"\x01" * 32, garbage) == keyring.recover(b"\x01" * 32, garbage)


def test_malformed_signature_raises(keyring):
    with pytest.raises(MalformedSignature):
        keyring.recover(b"\x01" * 32, b"")
    with pytest.raises(MalformedSignature):
        keyring.recover(b"\x01" * 32, b"\x00" * 51)


def test_signer_of_names_the_signer_or_none(keyring):
    alice = keyring.new_signer("alice")
    tx = make_transfer_tx(alice, 0, 1, alice.address)
    assert keyring.signer_of(tx) == alice.address
    truncated = Transaction(tx.slot, tx.parent_block, tx.new_owner, tx.signature[:-1])
    assert keyring.signer_of(truncated) is None


def test_new_signer_is_deterministic_per_seed():
    a = Keyring().new_signer("alice")
    b = Keyring().new_signer("alice")
    assert a.address == b.address and a.secret == b.secret
    assert Keyring().new_signer("bob").address != a.address


# -- blocks and witnesses --


def test_block_build_and_prove(keyring):
    config = SmtConfig(depth=8)
    alice = keyring.new_signer("alice")
    txs = {s: make_transfer_tx(alice, s, 1000, alice.address) for s in (1, 5, 9)}
    block = PlasmaBlock.build(2000, txs, config)
    itx = block.prove(5)
    assert itx.tx == txs[5] and itx.blk_number == 2000 and not itx.is_exclusion
    assert block.prove(6).is_exclusion


def test_block_encode_round_trip(keyring):
    config = SmtConfig(depth=8)
    alice = keyring.new_signer("alice")
    txs = {s: make_transfer_tx(alice, s, 1000, alice.address) for s in (0, 200)}
    block = PlasmaBlock.build(3000, txs, config)
    decoded = PlasmaBlock.decode(block.encode())
    assert decoded.number == block.number
    assert decoded.txs == block.txs
    assert decoded.root == block.root


def test_included_tx_encode_round_trip(keyring):
    config = SmtConfig(depth=8)
    alice = keyring.new_signer("alice")
    block = PlasmaBlock.build(1000, {4: make_transfer_tx(alice, 4, 1, alice.address)}, config)
    for slot in (4, 5):
        itx = block.prove(slot)
        assert IncludedTx.decode(itx.encode(config), config) == itx
