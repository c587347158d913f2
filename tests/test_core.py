"""Transactions, blocks, their canonical encodings, and the recoverable
signature scheme."""

import copy
import hashlib
import pickle
from dataclasses import FrozenInstanceError, asdict, fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import proof_from_siblings, whole
from plasma_cash import core
from plasma_cash.core import (
    ADDRESS_SIZE,
    NEIGHBOR,
    SIGNED,
    UNSIGNED,
    WIDTH_SHIFT,
    Address,
    IncludedTx,
    Keyring,
    PlasmaBlock,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
    spend_fault,
)
from plasma_cash.errors import MalformedEncoding, MalformedSignature
from plasma_cash.history import CoinHistory
from plasma_cash.rootchain import PlasmaContract
from plasma_cash.smt import Proof, Reader, SmtConfig, SparseMerkleTree, uint


def read_tx(data: bytes, kind: int) -> Transaction:
    """``data`` read as one transaction of the kind a container names."""
    return whole(data, lambda r: Transaction.read(r, kind))


def kind_of(tx: Transaction) -> int:
    return SIGNED if tx.signature else UNSIGNED


@pytest.fixture
def keyring():
    return Keyring()


def test_address_validation():
    Address(b"\x01" * 20)
    for size in (19, 21):
        with pytest.raises(ValueError):
            Address(b"\x01" * size)
    address = Address(bytes.fromhex("ab" * 20))
    assert address.hex == "ab" * 20 and repr(address) == "Address(abababab…)"


def test_address_compares_and_hashes_as_its_tuple():
    """Equality, ordering and hashing are ``tuple``'s own C slots, not
    Python-level methods: the hand-off path compares owners several times
    per delivery.  The hash is the one-field tuple's, and sorting orders
    addresses by ``id``."""
    for name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        assert getattr(Address, name) is getattr(tuple, name), name
    ids = [hashlib.sha256(bytes([i])).digest()[:ADDRESS_SIZE] for i in range(16)]
    addresses = [Address(i) for i in ids]
    assert all(hash(a) == hash((i,)) for a, i in zip(addresses, ids))
    assert [a.id for a in sorted(addresses)] == sorted(ids)
    assert Address(ids[0]) == addresses[0] and Address(ids[0]) != addresses[1]
    assert not hasattr(addresses[0], "__dict__")


def test_address_survives_pickle_deepcopy_and_asdict():
    """A transaction and its owner round-trip through ``pickle``,
    ``copy.deepcopy`` and ``dataclasses.asdict``, each owner still an
    ``Address``."""
    owner = Keyring().new_signer("alice").address
    tx = make_transfer_tx(Keyring().new_signer("bob"), 7, 1000, owner)
    for copied in (pickle.loads(pickle.dumps(tx)), copy.deepcopy(tx), Transaction(**asdict(tx))):
        assert copied == tx and type(copied.new_owner) is Address and copied.new_owner == owner
    assert pickle.loads(pickle.dumps(owner)) == owner and type(copy.deepcopy(owner)) is Address


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


def test_tx_hash_is_computed_once_and_kept_outside_the_fields(monkeypatch):
    """The digest is computed on the first read, of ``digest`` or through
    ``hash()``, and every later read of either returns that bytes object.
    It is kept on the transaction, outside its dataclass fields: equality,
    hashing, ``repr``, ``asdict`` and ``fields`` read the same as for a
    transaction never hashed.  A signed spend keeps the digest it signed, so
    its first read hashes nothing."""
    calls = []

    def sha256(data):
        calls.append(data)
        return hashlib.sha256(data)

    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    owner = Address(b"\x01" * 20)
    fresh = Transaction(slot=7, parent_block=1000, new_owner=owner)
    for first in (Transaction.hash, lambda tx: tx.digest):
        tx = Transaction(slot=7, parent_block=1000, new_owner=owner)
        calls.clear()
        digest = first(tx)
        reads = [tx.digest, tx.hash(), tx.digest, tx.hash(), first(tx)]
        assert all(read is digest for read in reads) and len(calls) == 1
        assert digest == hashlib.sha256(calls[0]).digest() and isinstance(digest, bytes)
        assert tx == fresh and hash(tx) == hash(fresh)
        assert repr(tx) == repr(fresh) and asdict(tx) == asdict(fresh)
        assert [f.name for f in fields(tx)] == ["slot", "parent_block", "new_owner", "signature"]
    spend = make_transfer_tx(Keyring().new_signer("alice"), 7, 1000, owner)
    calls.clear()
    assert spend.digest is spend.hash() and spend.digest == digest and not calls


def test_a_transaction_keeps_the_frozen_dataclass_contract(keyring):
    """``Transaction``'s own ``__init__``, which the dataclass keeps, builds
    the same frozen dataclass the generated one would, for a signed spend
    and for transactions built positionally and by keyword: every field
    refuses a write and a delete, the instance dict holds the four fields
    and, once read, the digest, and ``replace`` carries no digest over.  A
    missing or unknown argument raises TypeError, and the signature
    defaults to empty."""
    alice = keyring.new_signer("alice")
    bob, carol = (keyring.new_signer(name).address for name in ("bob", "carol"))
    spend = make_transfer_tx(alice, 7, 1000, bob)
    positional = Transaction(7, 1000, bob, spend.signature)
    keyword = Transaction(slot=7, parent_block=1000, new_owner=bob, signature=spend.signature)
    assert spend == positional == keyword and hash(spend) == hash(positional) == hash(keyword)
    assert repr(spend) == repr(positional) == repr(keyword)
    names = [f.name for f in fields(Transaction)]
    assert names == ["slot", "parent_block", "new_owner", "signature"]
    held = {"slot": 7, "parent_block": 1000, "new_owner": bob, "signature": spend.signature}
    assert vars(spend) == {**held, "digest": spend.digest}
    for tx in (positional, keyword):
        assert vars(tx) == held
        assert tx.digest == spend.digest and vars(tx) == {**held, "digest": spend.digest}
    for tx in (spend, positional, keyword):
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(tx, name, getattr(tx, name))
            with pytest.raises(FrozenInstanceError):
                delattr(tx, name)
        moved = replace(tx, new_owner=carol)
        assert "digest" not in vars(moved) and moved.new_owner == carol
        assert moved.digest == Transaction(7, 1000, carol, spend.signature).digest != spend.digest
    assert Transaction(7, 0, alice.address) == make_deposit_tx(7, alice.address)  # signature b""
    for args, kwargs in (
        ((7, 1000), {}),
        ((), {"slot": 7, "parent_block": 1000, "signature": b""}),
        ((7, 1000, bob, b"", 5), {}),
        ((7, 1000, bob), {"colour": 1}),
    ):
        with pytest.raises(TypeError):
            Transaction(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(
    slot=st.integers(0, 2**64 - 1),
    parent=st.integers(0, 2**64 - 1),
    owner=st.binary(min_size=20, max_size=20),
    sig=st.one_of(st.just(b""), st.binary(min_size=52, max_size=52)),
)
def test_tx_encode_round_trip(slot, parent, owner, sig):
    tx = Transaction(slot=slot, parent_block=parent, new_owner=Address(owner), signature=sig)
    assert read_tx(tx.encode(), kind_of(tx)) == tx


def test_deposit_tx_shape():
    dep = make_deposit_tx(3, Address(b"\x02" * 20))
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


def test_spend_fault_names_a_malformed_signature(keyring):
    """The owner's own spend has no fault; a truncated signature is signed
    by no one."""
    alice = keyring.new_signer("alice")
    tx = make_transfer_tx(alice, 0, 1, alice.address)
    assert spend_fault(tx, 1, alice.address, keyring) is None
    truncated = Transaction(tx.slot, tx.parent_block, tx.new_owner, tx.signature[:-1])
    assert spend_fault(truncated, 1, alice.address, keyring) == "malformed signature"


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
    assert itx.tx == txs[5] and itx.blk_number == 2000
    assert block.prove(6).tx is None


def test_deposit_block_commits_its_transaction_hash():
    """The contract builds no tree for a deposit: the block's root is its
    one transaction's hash, and the coin's record, which returns, keeps that
    transaction's entry with the empty proof, which encodes as a one-leaf
    tree's proof did.  The record stores the entry alone: its block and
    depositor are read from it."""
    keyring = Keyring()
    alice = keyring.new_signer("alice")
    contract = PlasmaContract(keyring.new_signer("operator").address, keyring)
    contract.balances[alice.address] = 5
    contract.current_block = 2
    config = contract.config
    coin = contract.deposit(alice.address, 5)
    tx = make_deposit_tx(0, alice.address)
    assert contract.coins[0] is coin and contract.roots == {3: tx.hash()}
    assert [f.name for f in fields(coin)] == ["slot", "owner", "denomination", "state", "deposit"]
    itx = coin.deposit
    assert itx == IncludedTx(tx, 3, config.empty_proof) and itx.proof.bitfield == 0
    assert coin.deposit_block == 3 and itx.tx.new_owner == coin.owner == alice.address
    one_leaf = SparseMerkleTree(config, {0: tx.hash()}).prove(0)
    assert itx.encode(config) == IncludedTx(tx, 3, one_leaf).encode(config)


def test_included_tx_encode_round_trip(keyring):
    config = SmtConfig(depth=8)
    alice = keyring.new_signer("alice")
    block = PlasmaBlock.build(1000, {4: make_transfer_tx(alice, 4, 1, alice.address)}, config)
    for slot in (4, 5):
        itx = block.prove(slot)
        assert IncludedTx.decode(itx.encode(config), config) == itx


def test_exclusion_entry_size():
    """In an empty tree every sibling of an exclusion proof is a default, so
    the proof's bitfield is 0, of width 0, and the entry is its block number
    and the kind byte alone; a deposit entry adds the unsigned transaction:
    its slot, its parent block 0 and the owner."""
    config = SmtConfig(depth=64)
    keyring = Keyring()
    deposit = IncludedTx(make_deposit_tx(0, keyring.new_signer("alice").address), 1, config.empty_proof)
    excl = PlasmaBlock.build(1000, {}, config).prove(0)
    assert excl.tx is None
    assert excl.encode(config) == uint(1000) + bytes((0,))  # kind 0: no tx, no neighbour, width 0
    assert len(excl.encode(config)) == len(uint(1000)) + 1 == 3
    deposit_tx = len(uint(0)) + len(uint(0)) + ADDRESS_SIZE
    assert len(deposit.encode(config)) == len(uint(1)) + 1 + deposit_tx == 24


# -- canonical decoding: one byte string, one value --

SMALL = SmtConfig(depth=4)
u64 = st.integers(0, 2**64 - 1)
transactions = st.builds(
    Transaction,
    slot=u64,
    parent_block=u64,
    new_owner=st.binary(min_size=20, max_size=20).map(Address),
    signature=st.one_of(st.just(b""), st.binary(min_size=52, max_size=52)),
)
# each sibling is its level's default (left out of the encoding) or random
# bytes (sent), so the bitfield takes every value
included_txs = st.builds(
    IncludedTx,
    tx=st.none() | transactions,
    blk_number=u64,
    proof=st.tuples(
        *(st.just(d) | st.binary(min_size=32, max_size=32) for d in SMALL.defaults[:SMALL.depth])
    ).map(proof_from_siblings),
)


def entries_by(key, elements, max_size=3):
    return st.lists(elements, max_size=max_size, unique_by=key).map(
        lambda items: {key(item): item for item in sorted(items, key=key)}
    )


def assert_canonical(data, decode, value, keep=()):
    """``data`` decodes to ``value``, and every strict prefix (but the
    lengths in ``keep``) and every 1-3 byte extension raises
    MalformedEncoding."""
    assert decode(data) == value
    for cut in range(len(data)):
        if cut not in keep:
            with pytest.raises(MalformedEncoding):
                decode(data[:cut])
    for extra in (b"\x00", b"\x01\x02", b"\xff" * 3):
        with pytest.raises(MalformedEncoding):
            decode(data + extra)


@settings(max_examples=100, deadline=None)
@given(tx=transactions)
def test_tx_decode_is_canonical(tx):
    # the signature is unframed: cutting all of it leaves the encoding of
    # the unsigned transaction, which containers tell apart by the kind byte
    unsigned_size = len(uint(tx.slot)) + len(uint(tx.parent_block)) + ADDRESS_SIZE
    whole_signature_cut = (unsigned_size,) if tx.signature else ()
    assert_canonical(tx.encode(), lambda d: read_tx(d, kind_of(tx)), tx, keep=whole_signature_cut)
    unsigned = Transaction(tx.slot, tx.parent_block, tx.new_owner)
    assert read_tx(tx.encode()[:unsigned_size], UNSIGNED) == unsigned


@settings(max_examples=50, deadline=None)
@given(itx=included_txs)
def test_included_tx_decode_is_canonical(itx):
    assert_canonical(itx.encode(SMALL), lambda d: IncludedTx.decode(d, SMALL), itx)


@settings(max_examples=30, deadline=None)
@given(
    slot=u64,
    deposit_block=u64,
    incl=entries_by(lambda itx: itx.blk_number, included_txs),
    excl=entries_by(lambda itx: itx.blk_number, included_txs),
)
def test_history_decode_is_canonical(slot, deposit_block, incl, excl):
    history = CoinHistory(slot, deposit_block, incl, excl)
    assert_canonical(
        history.encode(SMALL), lambda d: CoinHistory.decode(d, SMALL), history
    )


def test_decoders_reject_unordered_or_repeated_entries():
    proof = Proof(0b1111, (bytes(32),) * SMALL.depth)
    first, second = (IncludedTx(None, n, proof).encode(SMALL) for n in (3, 4))
    # slot 0, deposit block 0, no inclusions, two exclusions
    head = uint(0) + uint(0) + uint(0) + uint(2)
    assert set(CoinHistory.decode(head + first + second, SMALL).excl) == {3, 4}
    for body in (second + first, first * 2):
        with pytest.raises(MalformedEncoding):
            CoinHistory.decode(head + body, SMALL)


# not minimal, a run past 10 bytes, 2^64
BAD_UINTS = (b"\x80\x00", b"\x80" * 10 + b"\x01", b"\x80" * 9 + b"\x02")


def test_uint_round_trips_at_the_extremes_and_refuses_other_forms():
    for n, size in ((0, 1), (127, 1), (128, 2), (2**64 - 1, 10)):
        assert len(uint(n)) == size and whole(uint(n), Reader.uint) == n
    for bad, why in zip(BAD_UINTS, ("not minimal", "past 10 bytes", "below 2\\^64")):
        with pytest.raises(MalformedEncoding, match=why):
            whole(bad, Reader.uint)
    for n in (-1, 2**64):
        with pytest.raises(MalformedEncoding):
            uint(n)


@pytest.mark.parametrize("bad", BAD_UINTS)
def test_every_integer_field_refuses_a_bad_form(keyring, bad):
    alice = keyring.new_signer("alice")
    tx = make_transfer_tx(alice, 3, 1, alice.address)
    rest = tx.new_owner.id + tx.signature
    # blk, kind, slot, parent, owner and signature, proof
    itx = [uint(5), bytes((SIGNED,)), uint(3), uint(1), rest, SMALL.empty_proof.encode(SMALL)]
    encodings = [  # decoder, parts, the indices of the parts that are integers
        (lambda d: read_tx(d, SIGNED), [uint(3), uint(1), rest], (0, 1)),
        (lambda d: IncludedTx.decode(d, SMALL), itx, (0, 2, 3)),
        # slot, deposit block, one inclusion, no exclusion
        (lambda d: CoinHistory.decode(d, SMALL), [uint(3), uint(0), uint(1), *itx, uint(0)],
         (0, 1, 2, 3, 5, 6, 9)),
    ]
    for decode, parts, fields in encodings:
        decode(b"".join(parts))
        for i in fields:
            with pytest.raises(MalformedEncoding, match="integer"):
                decode(b"".join(parts[:i] + [bad] + parts[i + 1:]))


def test_decoders_refuse_unknown_kind_bits(keyring):
    """Unknown kinds: transaction kind 3, bit 7, and a bitfield width past
    ``bitfield_size`` (1 byte at depth 4), whatever bytes follow."""
    alice = keyring.new_signer("alice")
    tx = make_transfer_tx(alice, 3, 1, alice.address)
    data = IncludedTx(tx, 5, SMALL.empty_proof).encode(SMALL)
    at = len(uint(5))
    assert data[at] == SIGNED
    for kind in (3, NEIGHBOR | 3, 0x80, 0x80 | SIGNED, 0xFF):
        with pytest.raises(MalformedEncoding, match="kind"):
            IncludedTx.decode(data[:at] + bytes((kind,)) + data[at + 1:], SMALL)
    for width in range(SMALL.bitfield_size + 1, 16):
        kind = SIGNED | width << WIDTH_SHIFT
        for tail in (b"", b"\x01" * width):
            with pytest.raises(MalformedEncoding, match="past"):
                IncludedTx.decode(data[:at] + bytes((kind,)) + data[at + 1:] + tail, SMALL)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_entry_bitfield_takes_the_fewest_bytes(data):
    """At every depth an entry round-trips, its kind byte records the
    bitfield's width, ``ceil(bit_length / 8)`` bytes and never more than
    ``bitfield_size``, and those bytes follow the transaction.  The reader
    refuses a zero top byte, a width past ``bitfield_size`` and kind bit 7."""
    config = SmtConfig(depth=data.draw(st.integers(1, 64), label="depth"))
    bitfield = data.draw(st.integers(0, config.capacity - 1), label="bitfield")
    tx = data.draw(st.none() | transactions, label="tx")
    neighbor = None
    if tx is None and data.draw(st.booleans(), label="neighbour"):
        neighbor = (data.draw(st.integers(0, config.capacity - 1), label="slot"), bytes(32))
    present = tuple(hashlib.sha256(b"sib:%d" % i).digest() for i in range(bitfield.bit_count()))
    itx = IncludedTx(tx, data.draw(u64, label="blk"), Proof(bitfield, present, neighbor))
    encoded = itx.encode(config)
    assert IncludedTx.decode(encoded, config) == itx
    width = -(-bitfield.bit_length() // 8)
    assert itx.proof.width == width <= config.bitfield_size
    at = len(uint(itx.blk_number))
    kind = encoded[at]
    assert kind >> WIDTH_SHIFT == width
    body = at + 1 + (0 if tx is None else len(tx.encode()))
    assert encoded[body:body + width] == bitfield.to_bytes(width, "little")

    def with_kind(kind, bitfield_bytes):
        return encoded[:at] + bytes((kind,)) + encoded[at + 1:body] + bitfield_bytes + encoded[body + width:]

    wider = width + 1  # the same bitfield, a zero top byte appended
    padded = with_kind(kind + (1 << WIDTH_SHIFT), bitfield.to_bytes(wider, "little"))
    why = "top byte is zero" if wider <= config.bitfield_size else "past"
    with pytest.raises(MalformedEncoding, match=why):
        IncludedTx.decode(padded, config)
    for past in range(config.bitfield_size + 1, 16):
        wide = with_kind(kind & ~(0xF << WIDTH_SHIFT) | past << WIDTH_SHIFT, bitfield.to_bytes(past, "little"))
        with pytest.raises(MalformedEncoding, match="past"):
            IncludedTx.decode(wide, config)
    with pytest.raises(MalformedEncoding, match="kind bit 7"):
        IncludedTx.decode(with_kind(kind | 0x80, encoded[body:body + width]), config)


def test_a_truncated_or_missing_neighbour_is_refused():
    leaf = hashlib.sha256(b"leaf").digest()
    itx = IncludedTx(None, 5, SparseMerkleTree(SMALL, {0: leaf}).prove(1))
    assert itx.proof.neighbor == (0, leaf)
    data = itx.encode(SMALL)
    assert data[len(uint(5))] == NEIGHBOR
    neighbour = SMALL.bitfield_size + 32
    for cut in range(len(data) - neighbour, len(data)):
        with pytest.raises(MalformedEncoding):
            IncludedTx.decode(data[:cut], SMALL)
    # the neighbour bit set on an exclusion that names none
    plain = IncludedTx(None, 5, SMALL.empty_proof).encode(SMALL)
    flagged = plain[:1] + bytes((NEIGHBOR,)) + plain[2:]
    with pytest.raises(MalformedEncoding):
        IncludedTx.decode(flagged, SMALL)
    head = uint(3) + uint(0) + uint(0) + uint(1)  # one exclusion, the last entry
    assert CoinHistory.decode(head + plain, SMALL).excl[5] == IncludedTx(None, 5, SMALL.empty_proof)
    with pytest.raises(MalformedEncoding):
        CoinHistory.decode(head + flagged, SMALL)


@pytest.mark.parametrize("bad", [-1, 2**64])
def test_encoders_refuse_what_decoders_refuse(keyring, bad):
    alice = keyring.new_signer("alice")
    tx = make_transfer_tx(alice, 3, 1, alice.address)
    encodings = [
        Transaction(bad, 1, alice.address).encode,
        Transaction(3, bad, alice.address).encode,
        lambda: IncludedTx(tx, bad, SMALL.empty_proof).encode(SMALL),
        lambda: IncludedTx(Transaction(bad, 1, alice.address), 5, SMALL.empty_proof).encode(SMALL),
        lambda: CoinHistory(bad, 0).encode(SMALL),
        lambda: CoinHistory(3, bad).encode(SMALL),
        lambda: CoinHistory(3, 0, {bad: IncludedTx(tx, bad, SMALL.empty_proof)}).encode(SMALL),
    ]
    for encode in encodings:
        with pytest.raises(MalformedEncoding):
            encode()
    # the kind byte frames only an empty or a whole signature
    for signature in (b"\x01", tx.signature[:-1], tx.signature + b"\x00"):
        with pytest.raises(MalformedEncoding):
            Transaction(3, 1, alice.address, signature).encode()


def test_transfer_tx_keeps_the_digest_of_an_equal_fresh_transaction(keyring):
    alice = keyring.new_signer("alice")
    bob = keyring.new_signer("bob")
    tx = make_transfer_tx(alice, 9, 3000, bob.address)
    fresh = Transaction(9, 3000, Address(bob.address.id), tx.signature)
    assert tx == fresh and tx.hash() == fresh.hash()
    assert keyring.recover(tx.hash(), tx.signature) == alice.address


def test_recover_equals_the_address_building_reference(keyring):
    """Recovery by raw id returns what the former lookup by ``Address``
    returned, for registered, unregistered, forged, replayed and garbage
    signatures, and raises the same error for a wrong length."""
    secrets = {}

    def reference(digest, sig):
        if len(sig) != core.SIG_SIZE:
            raise MalformedSignature("length")
        claimed = Address(sig[:core.ADDRESS_SIZE])
        secret = secrets.get(claimed)
        if secret is not None and sig[core.ADDRESS_SIZE:] == hashlib.sha256(secret + digest).digest():
            return claimed
        return Address(hashlib.sha256(b"unrecoverable:" + sig + digest).digest()[:core.ADDRESS_SIZE])

    alice, mallory = keyring.new_signer("alice"), keyring.new_signer("mallory")
    for signer in (alice, mallory):
        secrets[signer.address] = signer.secret
    stranger = Keyring().new_signer("stranger")  # not in this keyring
    digest, other = b"\x05" * 32, b"\x06" * 32
    cases = [
        (digest, Keyring.sign(alice, digest)),  # registered
        (digest, Keyring.sign(stranger, digest)),  # unregistered
        (digest, alice.address.id + Keyring.sign(mallory, digest)[20:]),  # forged
        (other, Keyring.sign(alice, digest)),  # replayed on another digest
        (digest, b"\x0a" * 52),  # garbage
    ]
    for d, sig in cases:
        got = keyring.recover(d, sig)
        assert got == reference(d, sig) and type(got) is Address
    assert keyring.recover(*cases[0]) is keyring.recover(*cases[0])
    for sig in (b"", b"\x00" * 51, b"\x00" * 53):
        with pytest.raises(MalformedSignature):
            reference(digest, sig)
        with pytest.raises(MalformedSignature):
            keyring.recover(digest, sig)

