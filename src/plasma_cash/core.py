"""Canonical transaction, block, and identity types.

Witnesses travel in one self-delimiting encoding, bit-exact across
machines, with one reader: a witness entry (``IncludedTx``) is
``uint(blk) || kind || tx || proof``, whose kind byte says whether a
transaction follows, signed or not, whether the proof names a neighbour,
and how many bytes its bitfield takes; a transaction in an entry is
``uint(slot) || uint(parent) || owner || signature``, the proof its
bitfield form (``smt.Proof``) in the fewest bytes, and a coin history
(``history.CoinHistory``) a run of entries.  Integers are minimal LEB128
(``smt.uint``).  What is hashed and signed keeps its
fixed-width form (``_tx_digest``); an operator block reaches the contract
as its root alone, and the contract makes each deposit entry itself
(``rootchain.PlasmaContract.deposit``).
Signatures use a deterministic in-process scheme -- sig = address || MAC --
kept behind the same sign/recover contract a real recoverable-ECDSA
implementation would satisfy.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from .errors import MalformedEncoding, MalformedSignature
from .smt import Proof, Reader, SmtConfig, SparseMerkleTree, uint

ADDRESS_SIZE = 20
SIG_SIZE = ADDRESS_SIZE + 32  # embedded address + 32-byte binding MAC
#: Kind byte: the transaction that follows is unsigned or signed (none, 0,
#: in an exclusion entry), plus NEIGHBOR when the entry's proof names one,
#: plus the proof's bitfield width (``Proof.width``) shifted by WIDTH_SHIFT
#: into bits 3-6.  Bit 7 is set in no entry.
UNSIGNED, SIGNED, NEIGHBOR = 1, 2, 4
WIDTH_SHIFT = 3


class Address(namedtuple("Address", "id")):
    """20-byte account identifier on the root chain.

    A one-field tuple whose ``__new__`` checks the length, so equality,
    ordering and hashing are the tuple's and run in C: every hand-off
    compares owners several times.  ``hash(Address(b)) == hash((b,))``."""

    __slots__ = ()

    def __new__(cls, id: bytes):
        if len(id) != ADDRESS_SIZE:
            raise ValueError("address must be 20 bytes")
        return tuple.__new__(cls, (id,))

    @property
    def hex(self) -> str:
        return self.id.hex()

    def __repr__(self):
        return f"Address({self.id.hex()[:8]}…)"


def _tx_digest(slot: int, parent_block: int, new_owner: Address) -> bytes:
    return hashlib.sha256(
        slot.to_bytes(8, "big") + parent_block.to_bytes(8, "big") + new_owner.id
    ).digest()


@dataclass(frozen=True)
class Transaction:
    """Coin transfer: (slot, parentBlock, newOwner, signature).

    Deposit transactions carry parent_block = 0 and an empty signature.
    ``digest`` is the hash of (slot, parent_block, new_owner); the signature
    signs it and is therefore excluded from it.  It is computed at most once
    and kept on the instance, outside the dataclass fields, so equality,
    ``repr`` and ``asdict`` do not see it.
    """

    slot: int
    parent_block: int
    new_owner: Address
    signature: bytes = b""

    def __init__(self, slot: int, parent_block: int, new_owner: Address, signature: bytes = b""):
        # @dataclass keeps it: one dict write, not an object.__setattr__ per field
        self.__dict__.update(
            slot=slot, parent_block=parent_block, new_owner=new_owner, signature=signature
        )

    @cached_property
    def digest(self) -> bytes:
        return _tx_digest(self.slot, self.parent_block, self.new_owner)

    def hash(self) -> bytes:
        """``digest``, the same bytes object; the program reads the attribute."""
        return self.digest

    def encode(self) -> bytes:
        if len(self.signature) not in (0, SIG_SIZE):
            raise MalformedEncoding(f"signature of {len(self.signature)} bytes, not 0 or {SIG_SIZE}")
        return uint(self.slot) + uint(self.parent_block) + self.new_owner.id + self.signature

    @classmethod
    def read(cls, r: Reader, kind: int) -> "Transaction":
        """Read at the cursor one transaction of the kind its container names."""
        if kind not in (UNSIGNED, SIGNED):
            raise MalformedEncoding(f"{r.what}: unknown transaction kind {kind}")
        slot, parent_block, new_owner = r.uint(), r.uint(), Address(r.take(ADDRESS_SIZE))
        return cls(slot, parent_block, new_owner, r.take(SIG_SIZE) if kind == SIGNED else b"")


def make_deposit_tx(slot: int, depositor: Address) -> Transaction:
    return Transaction(slot=slot, parent_block=0, new_owner=depositor, signature=b"")


def make_transfer_tx(signer: "Signer", slot: int, parent_block: int, new_owner: Address) -> Transaction:
    """Signed spend: the previous owner hands the slot to ``new_owner``.
    The digest is computed once, signed, and kept on the transaction as its
    ``digest``."""
    digest = _tx_digest(slot, parent_block, new_owner)
    tx = Transaction(slot, parent_block, new_owner, Keyring.sign(signer, digest))
    tx.__dict__["digest"] = digest
    return tx


@dataclass(frozen=True)
class IncludedTx:
    """A transaction plus its (non-)inclusion witness for one block.

    ``tx is None`` marks an exclusion entry: the proof commits the slot to
    the empty-slot marker in that block.
    """

    tx: Optional[Transaction]
    blk_number: int
    proof: Proof

    def encode(self, config: SmtConfig) -> bytes:
        """``uint(blk_number) || kind || tx || proof``."""
        tx = self.tx
        kind = 0 if tx is None else SIGNED if tx.signature else UNSIGNED
        kind |= 0 if self.proof.neighbor is None else NEIGHBOR
        kind |= self.proof.width << WIDTH_SHIFT
        body = b"" if tx is None else tx.encode()
        return uint(self.blk_number) + bytes((kind,)) + body + self.proof.encode(config)

    @classmethod
    def decode(cls, data: bytes, config: SmtConfig) -> "IncludedTx":
        r = Reader(data, "included tx")
        itx = cls.read(r, config)
        r.end()
        return itx

    @classmethod
    def read(cls, r: Reader, config: SmtConfig) -> "IncludedTx":
        """Read one entry at the cursor: its kind byte and the bitfield frame
        it, so entries need no length.  Kind bit 7 is refused."""
        blk, kind = r.uint(), r.take(1)[0]
        if kind >> 7:
            raise MalformedEncoding(f"{r.what}: unknown kind bit 7")
        tx_kind = kind & (UNSIGNED | SIGNED)
        tx = Transaction.read(r, tx_kind) if tx_kind else None
        return cls(tx, blk, Proof.read(r, config, kind >> WIDTH_SHIFT, kind & NEIGHBOR == NEIGHBOR))


UNLINKED = "parent is not the last inclusion block"


def spend_fault(
    tx: Transaction, parent_block: int, owner: Address, keyring: Keyring
) -> Optional[str]:
    """Why ``tx`` is not a valid spend of the output ``owner`` received at
    ``parent_block``, or None when it is: ``UNLINKED`` when it names another
    block, else the signer's fault.  A malformed signature is signed by no
    one.  The contract, the verifier, the ledger and the wallet all ask here."""
    if tx.parent_block != parent_block:
        return UNLINKED
    try:
        signer = keyring.recover(tx.digest, tx.signature)
    except MalformedSignature:
        return "malformed signature"
    if signer != owner:
        return "signer does not own the coin"
    return None


@dataclass
class PlasmaBlock:
    """One operator block: at most one transaction per slot, and the SMT
    root over the slot -> txHash map.  Deposit blocks are the contract's
    own: it keeps each one's entry on the coin's record."""

    number: int
    txs: Dict[int, Transaction]
    root: bytes
    tree: SparseMerkleTree = field(repr=False, compare=False)
    # proof.bitfield -> the exclusion entry on the proof the tree shares
    # under it; an entry on a per-slot proof is built afresh, as is its proof
    _shared: Dict[int, IncludedTx] = field(repr=False, compare=False, init=False, default_factory=dict)

    @classmethod
    def build(cls, number: int, txs: Dict[int, Transaction], config: SmtConfig) -> "PlasmaBlock":
        tree = SparseMerkleTree(config, {slot: tx.digest for slot, tx in txs.items()})
        return cls(number, dict(txs), tree.root, tree)

    def prove(self, slot: int) -> IncludedTx:
        """Inclusion witness when the slot is spent here, exclusion otherwise,
        one frozen entry for each proof the tree shares."""
        tx = self.txs.get(slot)
        proof = self.tree.prove(slot)
        if tx is not None:
            return IncludedTx(tx, self.number, proof)
        itx = self._shared.get(proof.bitfield)
        if itx is None or itx.proof is not proof:
            itx = IncludedTx(None, self.number, proof)
            if self.tree.shares(proof):
                self._shared[proof.bitfield] = itx
        return itx


@dataclass(frozen=True)
class Signer:
    """Keypair handle: public address plus scheme-specific secret."""

    address: Address
    secret: bytes


class Keyring:
    """Deterministic signature scheme with address recovery.

    sign(s, h) = s.address || SHA256(secret || h).  Recovery checks the MAC
    against the registered secret for the embedded address; a signature that
    does not bind to the digest recovers to a pseudorandom non-matching
    address, mirroring how ecrecover yields garbage for a bad signature.
    """

    def __init__(self):
        # raw 20-byte id -> (secret, the registered Address), so recovery
        # looks up the signature's first bytes and builds no Address
        self._secrets: Dict[bytes, Tuple[bytes, Address]] = {}

    def new_signer(self, seed: str) -> Signer:
        raw = seed.encode()
        secret = hashlib.sha256(b"secret:" + raw).digest()
        address = Address(hashlib.sha256(b"address:" + raw).digest()[:ADDRESS_SIZE])
        signer = Signer(address=address, secret=secret)
        self._secrets[address.id] = (secret, address)
        return signer

    @staticmethod
    def sign(signer: Signer, digest: bytes) -> bytes:
        return signer.address.id + hashlib.sha256(signer.secret + digest).digest()

    def recover(self, digest: bytes, sig: bytes) -> Address:
        if len(sig) != SIG_SIZE:
            raise MalformedSignature(f"signature must be {SIG_SIZE} bytes, got {len(sig)}")
        entry = self._secrets.get(sig[:ADDRESS_SIZE])
        if entry is not None and sig[ADDRESS_SIZE:] == hashlib.sha256(entry[0] + digest).digest():
            return entry[1]
        # invalid binding: derive a garbage address deterministically
        return Address(hashlib.sha256(b"unrecoverable:" + sig + digest).digest()[:ADDRESS_SIZE])
