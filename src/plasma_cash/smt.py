"""Ordered Sparse Merkle Tree with inclusion / non-inclusion proofs.

Leaves live at fixed slots in a 2^depth address space.  Empty slots commit
to a per-level chain of precomputed default hashes, so building and proving
only ever touches the occupied part of the tree.  Proofs exist in two
encodings: the naive form (one 32-byte sibling per level) and a compact
form where a bitfield switches each level between "sibling is in the proof"
and "sibling is the level's default hash".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Tuple

from .errors import (
    BitfieldMismatch,
    LeafEqualsDefault,
    MalformedProof,
    SlotOutOfRange,
)

DIGEST_SIZE = 32


def hash_leaf(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash_pair(left: bytes, right: bytes) -> bytes:
    # parent = H(left || right); no domain separation, 32 bytes per level
    return hashlib.sha256(left + right).digest()


#: Digest marking an empty slot: the hash of 32 zero bytes.
DEFAULT_LEAF = hash_leaf(b"\x00" * DIGEST_SIZE)


@dataclass(frozen=True)
class SmtConfig:
    """Tree shape: height and the empty-slot marker digest."""

    depth: int = 64
    default_leaf: bytes = DEFAULT_LEAF

    def __post_init__(self):
        if not 1 <= self.depth <= 64:
            raise ValueError(f"depth must be in [1, 64], got {self.depth}")
        if len(self.default_leaf) != DIGEST_SIZE:
            raise ValueError("default_leaf must be 32 bytes")

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    @property
    def defaults(self) -> Tuple[bytes, ...]:
        """Default digest per level; defaults[0] is the empty leaf,
        defaults[depth] the empty-tree root."""
        return _default_chain(self.depth, self.default_leaf)

    @property
    def bitfield_size(self) -> int:
        return (self.depth + 7) // 8


@lru_cache(maxsize=None)
def _default_chain(depth: int, default_leaf: bytes) -> Tuple[bytes, ...]:
    chain = [default_leaf]
    for _ in range(depth):
        chain.append(hash_pair(chain[-1], chain[-1]))
    return tuple(chain)


@dataclass(frozen=True)
class Proof:
    """Naive Merkle proof: one sibling digest per level, leaf-adjacent first."""

    siblings: Tuple[bytes, ...]

    def to_bytes(self) -> bytes:
        return b"".join(self.siblings)

    @classmethod
    def from_bytes(cls, data: bytes, config: SmtConfig) -> "Proof":
        if len(data) != DIGEST_SIZE * config.depth:
            raise MalformedProof(
                f"expected {DIGEST_SIZE * config.depth} bytes, got {len(data)}"
            )
        sibs = tuple(
            data[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE] for i in range(config.depth)
        )
        return cls(sibs)


@dataclass(frozen=True)
class CompactProof:
    """Bitfield-compressed proof.

    Bit i of ``bitfield`` is set iff the level-i sibling differs from the
    level default and therefore appears in ``siblings`` (leaf-adjacent
    first).  Serialized as a little-endian bitfield followed by the
    non-default siblings.
    """

    bitfield: int
    siblings: Tuple[bytes, ...]

    def to_bytes(self, config: SmtConfig) -> bytes:
        return self.bitfield.to_bytes(config.bitfield_size, "little") + b"".join(
            self.siblings
        )

    @classmethod
    def from_bytes(cls, data: bytes, config: SmtConfig) -> "CompactProof":
        n = config.bitfield_size
        if len(data) < n:
            raise MalformedProof("compact proof shorter than its bitfield")
        bitfield = int.from_bytes(data[:n], "little")
        body = data[n:]
        count = bin(bitfield).count("1")
        if len(body) != count * DIGEST_SIZE:
            raise BitfieldMismatch(
                f"bitfield says {count} siblings, body holds {len(body) // DIGEST_SIZE}"
            )
        sibs = tuple(
            body[i * DIGEST_SIZE:(i + 1) * DIGEST_SIZE] for i in range(count)
        )
        return cls(bitfield, sibs)


class SparseMerkleTree:
    """Immutable SMT built once from a slot -> digest map."""

    def __init__(self, config: SmtConfig, leaves: Dict[int, bytes]):
        for slot, leaf in leaves.items():
            if not 0 <= slot < config.capacity:
                raise SlotOutOfRange(f"slot {slot} outside 2^{config.depth} space")
            if len(leaf) != DIGEST_SIZE:
                raise MalformedProof(f"leaf at slot {slot} is not 32 bytes")
            if leaf == config.default_leaf:
                raise LeafEqualsDefault(
                    f"slot {slot}: leaf equals the empty-slot marker"
                )
        self.config = config
        self.leaves = dict(leaves)
        # levels[i]: non-default node digests at level i, keyed by node index
        self._levels = self._build()

    def _build(self):
        defaults = self.config.defaults
        levels = [dict(self.leaves)]
        for i in range(self.config.depth):
            current = levels[i]
            parents: Dict[int, bytes] = {}
            for idx in current:
                p = idx >> 1
                if p in parents:
                    continue
                left = current.get(p * 2, defaults[i])
                right = current.get(p * 2 + 1, defaults[i])
                parents[p] = hash_pair(left, right)
            levels.append(parents)
        return levels

    @property
    def root(self) -> bytes:
        return self._levels[self.config.depth].get(0, self.config.defaults[self.config.depth])

    def leaf_at(self, slot: int) -> bytes:
        """Digest committed at a slot (the default marker when absent)."""
        if not 0 <= slot < self.config.capacity:
            raise SlotOutOfRange(str(slot))
        return self.leaves.get(slot, self.config.default_leaf)

    def prove(self, slot: int) -> Proof:
        """Merkle path for a slot; works for absent slots too (non-inclusion)."""
        if not 0 <= slot < self.config.capacity:
            raise SlotOutOfRange(str(slot))
        defaults = self.config.defaults
        sibs = []
        for i in range(self.config.depth):
            sib_idx = (slot >> i) ^ 1
            sibs.append(self._levels[i].get(sib_idx, defaults[i]))
        return Proof(tuple(sibs))


def verify(slot: int, leaf: bytes, proof: Proof, root: bytes, config: SmtConfig) -> bool:
    """Fold ``leaf`` up the path selected by the slot's bits.

    Bit i of the slot picks the side at level i (bit 0 decides adjacent to
    the leaf); returns True iff the fold reproduces ``root``.
    """
    if len(proof.siblings) != config.depth:
        raise MalformedProof(
            f"proof has {len(proof.siblings)} siblings, depth is {config.depth}"
        )
    defaults = config.defaults
    node = leaf
    for i, sib in enumerate(proof.siblings):
        # Two defaults fold to the next default; skipping the hash keeps
        # non-inclusion checks over sparse trees cheap.
        if node == defaults[i] and sib == defaults[i]:
            node = defaults[i + 1]
        elif (slot >> i) & 1:
            node = hash_pair(sib, node)
        else:
            node = hash_pair(node, sib)
    return node == root


def compact(proof: Proof, config: SmtConfig) -> CompactProof:
    if len(proof.siblings) != config.depth:
        raise MalformedProof("cannot compact a proof of the wrong depth")
    defaults = config.defaults
    bitfield = 0
    kept = []
    for i, sib in enumerate(proof.siblings):
        if sib != defaults[i]:
            bitfield |= 1 << i
            kept.append(sib)
    return CompactProof(bitfield, tuple(kept))


def expand(cp: CompactProof, config: SmtConfig) -> Proof:
    count = bin(cp.bitfield).count("1")
    if count != len(cp.siblings):
        raise BitfieldMismatch(
            f"popcount {count} != sibling count {len(cp.siblings)}"
        )
    if cp.bitfield >> config.depth:
        raise BitfieldMismatch("bitfield has bits beyond the tree depth")
    defaults = config.defaults
    it = iter(cp.siblings)
    sibs = tuple(
        next(it) if (cp.bitfield >> i) & 1 else defaults[i]
        for i in range(config.depth)
    )
    return Proof(sibs)
