"""Ordered Sparse Merkle Tree with inclusion / non-inclusion proofs.

Leaves live at fixed slots in a 2^depth address space.  Empty slots commit
to a per-level chain of precomputed default hashes, so building and proving
only ever touches the occupied part of the tree.  A proof holds one sibling
per level; its one wire form is a bitfield that switches each level between
"sibling is in the proof" and "sibling is the level's default hash", followed
by the siblings that are in it.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Set, Tuple

from .errors import (
    LeafEqualsDefault,
    MalformedEncoding,
    MalformedProof,
    SlotOutOfRange,
)

DIGEST_SIZE = 32


def hash_pair(left: bytes, right: bytes) -> bytes:
    # parent = H(left || right); no domain separation, 32 bytes per level
    return hashlib.sha256(left + right).digest()


#: Digest marking an empty slot: the hash of 32 zero bytes.
DEFAULT_LEAF = hashlib.sha256(b"\x00" * DIGEST_SIZE).digest()


@dataclass(frozen=True)
class SmtConfig:
    """Tree shape: its height.  Empty slots hold ``DEFAULT_LEAF``."""

    depth: int = 64

    def __post_init__(self):
        if not 1 <= self.depth <= 64:
            raise ValueError(f"depth must be in [1, 64], got {self.depth}")

    @property
    def capacity(self) -> int:
        return 1 << self.depth

    @property
    def defaults(self) -> Tuple[bytes, ...]:
        """Default digest per level; defaults[0] is the empty leaf,
        defaults[depth] the empty-tree root."""
        return _default_chain(self.depth)

    @property
    def bitfield_size(self) -> int:
        return (self.depth + 7) // 8

    @property
    def empty_proof(self) -> "Proof":
        """The proof whose every sibling is its level's default: a lone
        leaf's path."""
        return _empty_proof(self.depth)


@lru_cache(maxsize=None)
def _default_chain(depth: int) -> Tuple[bytes, ...]:
    chain = [DEFAULT_LEAF]
    for _ in range(depth):
        chain.append(hash_pair(chain[-1], chain[-1]))
    return tuple(chain)


@lru_cache(maxsize=None)
def _empty_proof(depth: int) -> "Proof":
    return Proof(_default_chain(depth)[:depth], 0)


class Reader:
    """Cursor over one encoding.  Reading past the end or leaving bytes
    unread raises MalformedEncoding, so a truncated or padded input never
    decodes."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise MalformedEncoding(
                f"{self.what}: needs {end} bytes, got {len(self.data)}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def int(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")

    def end(self):
        if self.pos != len(self.data):
            raise MalformedEncoding(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes"
            )


@dataclass(frozen=True)
class Proof:
    """Merkle proof: one sibling digest per level, leaf-adjacent first.

    On the wire only the siblings that differ from their level's default
    are sent: a little-endian bitfield of ``config.bitfield_size`` bytes
    whose bit i is set iff the level-i sibling is present, then those
    siblings, leaf-adjacent first.
    """

    siblings: Tuple[bytes, ...]
    #: One past the highest level whose sibling is not that level's default.
    #: ``prove`` and ``decode`` set it; a proof built from siblings alone
    #: finds it by identity, since ``prove`` and ``decode`` place the shared
    #: default objects.  A sibling equal to its default but not the same
    #: object only raises ``top``, which ``verify`` allows.
    top: int = field(default=None, compare=False)

    def __post_init__(self):
        if self.top is None:
            defaults = _default_chain(len(self.siblings))
            # byte i is 1 iff the level-i sibling is not the default object
            top = bytes(map(operator.is_not, self.siblings, defaults)).rfind(1) + 1
            object.__setattr__(self, "top", top)

    def encode(self, config: SmtConfig) -> bytes:
        if len(self.siblings) != config.depth:
            raise MalformedProof(
                f"proof has {len(self.siblings)} siblings, depth is {config.depth}"
            )
        bitfield = 0
        present = []
        for i, (sib, default) in enumerate(zip(self.siblings, config.defaults)):
            if sib != default:
                bitfield |= 1 << i
                present.append(sib)
        return bitfield.to_bytes(config.bitfield_size, "little") + b"".join(present)

    @classmethod
    def decode(cls, data: bytes, config: SmtConfig) -> "Proof":
        """Inverse of encode.  A bit past the depth or a present sibling
        equal to its default would give a second encoding of the same
        proof, so both raise MalformedEncoding."""
        r = Reader(data, "proof")
        bitfield = int.from_bytes(r.take(config.bitfield_size), "little")
        if bitfield >> config.depth:
            raise MalformedEncoding("proof: bitfield bit set past the tree depth")
        sibs = []
        for i, default in enumerate(config.defaults[:config.depth]):
            if bitfield >> i & 1:
                sib = r.take(DIGEST_SIZE)
                if sib == default:
                    raise MalformedEncoding(f"proof: level-{i} sibling sent but is the default")
                sibs.append(sib)
            else:
                sibs.append(default)
        r.end()
        return cls(tuple(sibs), bitfield.bit_length())


class SparseMerkleTree:
    """Immutable SMT built once from a slot -> digest map."""

    def __init__(self, config: SmtConfig, leaves: Dict[int, bytes]):
        for slot, leaf in leaves.items():
            if not 0 <= slot < config.capacity:
                raise SlotOutOfRange(f"slot {slot} outside 2^{config.depth} space")
            if len(leaf) != DIGEST_SIZE:
                raise MalformedProof(f"leaf at slot {slot} is not 32 bytes")
            if leaf == DEFAULT_LEAF:
                raise LeafEqualsDefault(
                    f"slot {slot}: leaf equals the empty-slot marker"
                )
        self.config = config
        self.leaves = dict(leaves)
        # levels[i]: non-default node digests at level i, keyed by node index
        self._levels = self._build()
        # the split height: one past the highest level holding two or more
        # nodes; every level from it up holds only the node above ``_anchor``
        self._split = next(
            (i + 1 for i in reversed(range(config.depth)) if len(self._levels[i]) > 1), 0
        )
        self._anchor = next(iter(self.leaves), None)

    def _build(self):
        defaults, depth = self.config.defaults, self.config.depth
        levels = [dict(self.leaves)]
        for i in range(depth):
            current = levels[i]
            if len(current) == 1:
                # one node a level from here: fold it up past default siblings
                ((idx, node),) = current.items()
                for j in range(i, depth):
                    node = hash_pair(defaults[j], node) if idx & 1 else hash_pair(node, defaults[j])
                    idx >>= 1
                    levels.append({idx: node})
                break
            parents: Dict[int, bytes] = {}
            for idx in current:
                p = idx >> 1
                if p not in parents:
                    left = current.get(p * 2, defaults[i])
                    parents[p] = hash_pair(left, current.get(p * 2 + 1, defaults[i]))
            levels.append(parents)
        return levels

    @property
    def root(self) -> bytes:
        return self._levels[self.config.depth].get(0, self.config.defaults[self.config.depth])

    def leaf_at(self, slot: int) -> bytes:
        """Digest committed at a slot (the default marker when absent)."""
        if not 0 <= slot < self.config.capacity:
            raise SlotOutOfRange(str(slot))
        return self.leaves.get(slot, DEFAULT_LEAF)

    def prove(self, slot: int) -> Proof:
        """Merkle path for a slot; works for absent slots too (non-inclusion).

        Only the levels below the split height are looked up.  Above it the
        one node of each level lies on the occupied slots' path, so it is the
        slot's sibling only at the highest bit where the slot leaves that
        path, and a slot that leaves it there has no other non-default
        sibling."""
        depth = self.config.depth
        if not 0 <= slot < 1 << depth:
            raise SlotOutOfRange(str(slot))
        sibs = list(self.config.defaults[:depth])
        levels, split, anchor = self._levels, self._split, self._anchor
        if anchor is not None:
            high = (slot ^ anchor).bit_length() - 1
            if high >= split:
                sibs[high] = levels[high][anchor >> high]
                return Proof(tuple(sibs), high + 1)
        top = 0
        for i in range(split):
            sib = levels[i].get((slot >> i) ^ 1)
            if sib is not None:
                sibs[i] = sib
                top = i + 1
        return Proof(tuple(sibs), top)


#: Keys ``(root, level, index, node)`` of subtree nodes ``verify`` folded
#: up to ``root`` with default siblings only.
Memo = Set[Tuple[bytes, int, int, bytes]]


def verify(
    slot: int,
    leaf: bytes,
    proof: Proof,
    root: bytes,
    config: SmtConfig,
    known: Optional[Memo] = None,
) -> bool:
    """Fold ``leaf`` up the path selected by the slot's bits.

    Bit i of the slot picks the side at level i (bit 0 decides adjacent to
    the leaf); returns True iff the fold reproduces ``root``.

    Above ``proof.top`` every sibling is its level's default, so the rest
    of the fold depends only on the node reached at ``top``, its index
    ``slot >> top`` and ``root``.  With ``known``, a caller's memo of such
    keys that folded to their root, a hit returns True without hashing and
    a fold that succeeds adds its key, unless ``top`` is 0: that key names
    the leaf itself, so only the same check again could hit it.  The answer
    is the full fold's, with no assumption on the hash: a proof altered
    above ``top`` has another ``top``, one altered below it reaches another
    node.  Coins of one block share their path above the smallest subtree
    holding them, so a wallet that keeps one memo hashes that path once per
    block.
    """
    if len(proof.siblings) != config.depth:
        raise MalformedProof(
            f"proof has {len(proof.siblings)} siblings, depth is {config.depth}"
        )
    if not 0 <= slot < config.capacity:
        raise SlotOutOfRange(str(slot))
    # hash_pair is looked up once a call, so a hook patched in before the
    # call still sees every hash
    hash_ = hash_pair
    defaults = config.defaults
    top = proof.top
    if not top:
        known = None
    node = leaf
    for i, sib in enumerate(proof.siblings[:top]):
        # Two defaults fold to the next default; skipping the hash keeps
        # non-inclusion checks over sparse trees cheap.
        if node == defaults[i] and sib == defaults[i]:
            node = defaults[i + 1]
        elif (slot >> i) & 1:
            node = hash_(sib, node)
        else:
            node = hash_(node, sib)
    key = (root, top, slot >> top, node)
    if known is not None and key in known:
        return True
    if node == defaults[top]:
        node = defaults[config.depth]
    else:
        # every sibling is a default; the per-level default test below top
        # would skip only hashes whose result, defaults[i + 1] ==
        # hash_pair(defaults[i], defaults[i]), is the one computed here
        index = slot >> top
        for sib in defaults[top:config.depth]:
            node = hash_(sib, node) if index & 1 else hash_(node, sib)
            index >>= 1
    if node != root:
        return False
    if known is not None:
        known.add(key)
    return True
