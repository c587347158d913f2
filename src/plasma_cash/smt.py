"""Ordered Sparse Merkle Tree with inclusion / non-inclusion proofs.

Leaves live at fixed slots in a 2^depth address space.  A subtree commits
to one digest, chosen by how many leaves it holds:

- none: its level's default, from a precomputed chain over the empty leaf;
- one, at slot ``s``: ``hash_pair(s.to_bytes(8, "big"), leaf)`` at every
  height, or the leaf itself at height 0;
- two or more: ``hash_pair(left, right)``.

A lone leaf's digest hashes 40 bytes and every other node 64, so one never
stands for the other without a SHA-256 collision.  A tree of one coin costs
one hash to build and one to check, at any depth.

A proof is its wire form: a bitfield whose bit i is set when the level-i
sibling is not that level's default, the siblings so marked, and for an
exclusion beside a lone coin that coin's ``(slot, leaf)``, its neighbour.
Below the lowest set bit, ``low``, the slot's subtree holds at most one
leaf: the slot's own, none, or the neighbour.  A proof's form is decided
once, when it is built (``Proof.__post_init__``); only the two faults that
depend on the depth, a bit past it and a neighbour slot outside the tree,
are tested where the depth is known.  ``verify`` answers every input with
True or False and never raises.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Optional, Set, Tuple

from .errors import (
    BadLeaf,
    MalformedEncoding,
    MalformedProof,
    SlotOutOfRange,
)

DIGEST_SIZE = 32
_sha256 = hashlib.sha256  # bound once; hooks count hashes at hash_pair, looked up per call


def hash_pair(left: bytes, right: bytes) -> bytes:
    # H(left || right): 64 bytes for an internal node, 8 + 32 for a lone leaf
    return _sha256(left + right).digest()


#: Digest marking an empty slot: the hash of 32 zero bytes.
DEFAULT_LEAF = hashlib.sha256(b"\x00" * DIGEST_SIZE).digest()


def uint(n: int) -> bytes:
    """Minimal unsigned LEB128 of ``n``: 7 bits a byte, low bits first, the
    high bit set while more follow.  ``n`` outside [0, 2^64) is refused."""
    if not 0 <= n < 1 << 64:
        raise MalformedEncoding(f"integer {n} outside [0, 2^64)")
    out = bytearray()
    while n > 0x7F:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    out.append(n)
    return bytes(out)


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

    def uint(self) -> int:
        """Inverse of ``uint``: a trailing zero byte, a run past 10 bytes or
        a value of 2^64 or more would give a second form or an overflow."""
        value = 0
        for shift in range(0, 70, 7):
            (byte,) = self.take(1)
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                if (not byte and shift) or value >> 64:
                    raise MalformedEncoding(f"{self.what}: integer not minimal or not below 2^64")
                return value
        raise MalformedEncoding(f"{self.what}: integer runs past 10 bytes")

    def end(self):
        if self.pos != len(self.data):
            raise MalformedEncoding(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes"
            )


#: Each level's default digest: DEFAULTS[0] is the empty leaf, DEFAULTS[i]
#: the root of an empty subtree of height i, whatever the tree's depth.
DEFAULTS = tuple(accumulate(range(64), lambda node, _: hash_pair(node, node), initial=DEFAULT_LEAF))


@dataclass(frozen=True)
class Proof:
    """Merkle proof in its wire form.  Bit i of ``bitfield`` is set when the
    level-i sibling is not that level's default; ``present`` holds those
    siblings, leaf-adjacent first.  ``neighbor`` is ``(slot, leaf)`` of the
    one coin in the slot's subtree at the lowest set bit, on an exclusion
    whose subtree there is not empty, and None otherwise.

    Encoded, the bitfield is its ``width``, the fewest little-endian bytes
    that hold it (none for bitfield 0, at most ``config.bitfield_size``),
    then come the present siblings, then the neighbour, if any: its slot in
    ``bitfield_size`` big-endian bytes and its leaf.  The container records
    the width and whether a neighbour follows.
    """

    bitfield: int
    present: Tuple[bytes, ...]
    neighbor: Optional[Tuple[int, bytes]] = None

    def __post_init__(self):
        """Refuse with MalformedProof what no tree of any depth can send: a
        negative bitfield or a bit at 64 or above, a count of siblings other
        than the set bits, a sibling that is not 32 bytes or equals its
        level's default, a negative neighbour slot and a neighbour leaf that
        is not 32 bytes.  So every proof has one wire form and folds only
        32-byte digests."""
        bitfield, present, neighbor = self.bitfield, self.present, self.neighbor
        if not 0 <= bitfield < 1 << 64 or len(present) != bitfield.bit_count():
            raise MalformedProof(f"bitfield {bitfield:#x} does not frame {len(present)} siblings")
        rest = bitfield
        for sib in present:
            bit, rest = rest & -rest, rest & (rest - 1)
            if len(sib) != DIGEST_SIZE or sib == DEFAULTS[bit.bit_length() - 1]:
                raise MalformedProof(f"sibling at bit {bit:#x} is not 32 bytes or is the default")
        if neighbor is not None and (neighbor[0] < 0 or len(neighbor[1]) != DIGEST_SIZE):
            raise MalformedProof(f"neighbour slot {neighbor[0]} is negative or its leaf not 32 bytes")

    @property
    def width(self) -> int:
        """Bytes the encoded bitfield takes: 0 for none set, 1 for bits 0-7."""
        return (self.bitfield.bit_length() + 7) // 8

    def encode(self, config: SmtConfig) -> bytes:
        """A bit at or past the depth, or a neighbour slot outside the tree,
        has no encoding that ``read`` takes back: it raises MalformedProof."""
        neighbor = self.neighbor
        if self.bitfield >> config.depth or neighbor is not None and neighbor[0] >= config.capacity:
            raise MalformedProof(f"proof does not fit a tree of depth {config.depth}")
        out = [self.bitfield.to_bytes(self.width, "little"), *self.present]
        if neighbor is not None:
            out += [neighbor[0].to_bytes(config.bitfield_size, "big"), neighbor[1]]
        return b"".join(out)

    @classmethod
    def read(cls, r: Reader, config: SmtConfig, width: int, has_neighbor: bool) -> "Proof":
        """Read one proof at the cursor; its container's kind byte gives the
        bitfield's width and says whether a neighbour follows.  A width past
        ``bitfield_size``, a zero top byte, a bit past the depth, a
        neighbour slot outside the tree, and a sent sibling equal to its
        default (refused by the constructor with MalformedProof, a kind of
        MalformedEncoding) would each give a second encoding of one proof."""
        size = config.bitfield_size
        if width > size:
            raise MalformedEncoding(f"proof: bitfield of {width} bytes, past {size}")
        raw = r.take(width)
        if raw and not raw[-1]:
            raise MalformedEncoding("proof: bitfield's top byte is zero")
        bitfield = int.from_bytes(raw, "little")
        if bitfield >> config.depth:
            raise MalformedEncoding("proof: bitfield bit set past the tree depth")
        present = tuple(r.take(DIGEST_SIZE) for _ in range(bitfield.bit_count()))
        neighbor = None
        if has_neighbor:
            other = int.from_bytes(r.take(size), "big")
            if other >= config.capacity:
                raise MalformedEncoding(f"proof: neighbour slot {other} outside the tree")
            neighbor = (other, r.take(DIGEST_SIZE))
        return cls(bitfield, present, neighbor)


@dataclass(frozen=True)
class SmtConfig:
    """Tree shape: its height.  Empty slots hold ``DEFAULT_LEAF``.  Its
    constants are set once, outside the dataclass fields, so equality, hash
    and ``repr`` see only ``depth``: ``capacity`` and ``bitfield_size``.
    Two serve every depth: ``defaults``, the module's ``DEFAULTS`` chain
    (defaults[depth] is the empty-tree root), and ``empty_proof``, a lone
    leaf's path, which names no sibling."""

    depth: int = 64
    defaults = DEFAULTS
    empty_proof = Proof(0, ())

    def __post_init__(self):
        depth = self.depth
        if not 1 <= depth <= 64:
            raise ValueError(f"depth must be in [1, 64], got {depth}")
        object.__setattr__(self, "capacity", 1 << depth)
        object.__setattr__(self, "bitfield_size", (depth + 7) // 8)


class SparseMerkleTree:
    """Immutable SMT built once from a slot -> digest map."""

    def __init__(self, config: SmtConfig, leaves: Dict[int, bytes]):
        for slot, leaf in leaves.items():
            if not 0 <= slot < config.capacity:
                raise SlotOutOfRange(f"slot {slot} outside 2^{config.depth} space")
            if len(leaf) != DIGEST_SIZE or leaf == DEFAULT_LEAF:
                raise BadLeaf(f"leaf at slot {slot} is not 32 bytes or is the empty-slot marker")
        self.config = config
        self.leaves = dict(leaves)
        # split: one past the highest level holding two or more nodes.
        # held: ``(i, nodes)`` for each level i below the split that holds a
        # node some proof names as a sibling, lowest first, the nodes keyed
        # by index: each node holding two or more leaves, and each lone
        # leaf's highest node (the one under a node of two or more).
        # lone[(i, index)]: the slot whose leaf a held lone node holds.
        # spine: ``spine[j - split]`` is the one node of level j, for each
        # level from the split up to the root's children, on ``_anchor``'s
        # path; empty in a tree of zero or one leaf.
        self._spine, self._held, self._lone, self._split, self.root = self._build()
        self._anchor = next(iter(self.leaves), None)
        # bitfield -> the exclusion proof shared by every slot of one shape (see prove)
        self._shared: Dict[int, Proof] = {} if leaves else {0: config.empty_proof}

    def _build(self):
        defaults, depth, leaves = self.config.defaults, self.config.depth, self.leaves
        # no level of a tree of zero or one leaf holds two nodes
        if not leaves:
            return [], [], {}, 0, defaults[depth]
        if len(leaves) == 1:  # it commits as its lone digest
            ((slot, leaf),) = leaves.items()
            return [], [], {}, 0, hash_pair(slot.to_bytes(8, "big"), leaf)
        held = []
        lone_at = {}
        lone = {slot: slot for slot in leaves}  # index -> slot, one leaf below
        inner: Dict[int, bytes] = {}  # index -> digest, two or more below
        i = 0
        while i < depth and len(lone) + len(inner) > 1:
            stored = inner
            up_lone = {}
            for idx, slot in lone.items():
                if (idx ^ 1) in lone or (idx ^ 1) in inner:
                    # the lone leaf meets another node: its digest is stored
                    leaf = leaves[slot]
                    stored[idx] = hash_pair(slot.to_bytes(8, "big"), leaf) if i else leaf
                    lone_at[i, idx] = slot
                else:
                    up_lone[idx >> 1] = slot
            parents: Dict[int, bytes] = {}
            for idx in stored:
                p = idx >> 1
                if p not in parents:
                    left = stored.get(p * 2, defaults[i])
                    parents[p] = hash_pair(left, stored.get(p * 2 + 1, defaults[i]))
            if stored:
                held.append((i, stored))
            lone, inner = up_lone, parents
            i += 1
        # one node of two or more leaves: fold it up past default siblings
        ((idx, node),) = inner.items()
        spine = []
        for j in range(i, depth):
            spine.append(node)
            node = hash_pair(defaults[j], node) if idx & 1 else hash_pair(node, defaults[j])
            idx >>= 1
        return spine, held, lone_at, i, node

    def prove(self, slot: int) -> Proof:
        """Merkle path for a slot; works for absent slots too (non-inclusion).

        Only the levels below the split height that hold a node are looked
        up: none does below the lowest level where two nodes meet.  Above it the
        one node of each level lies on the occupied slots' path, so it is the
        slot's sibling only at the highest bit where the slot leaves that
        path, and a slot that leaves it there has no other non-default
        sibling; in a tree of one leaf that node is the lone leaf, the
        slot's neighbour.  Below the split height, an absent slot whose
        lowest non-default sibling sits beside a lone leaf's highest node
        has that leaf as its neighbour.  One frozen proof, built on first
        request, serves every slot of a shape the tree fixes: the empty tree
        (``config.empty_proof``), a one-leaf tree's other slots (bitfield 0)
        and each height where a slot leaves the path above the split (that
        height's bit alone).  A one-leaf tree's own slot gets the empty proof."""
        config = self.config
        if not 0 <= slot < config.capacity:
            raise SlotOutOfRange(str(slot))
        split, anchor = self._split, self._anchor
        if anchor is None:
            return config.empty_proof
        high = (slot ^ anchor).bit_length() - 1
        if high >= split:
            key = 1 << high if split else 0
            proof = self._shared.get(key)
            if proof is None:
                if split:
                    proof = Proof(key, (self._spine[high - split],))
                else:
                    proof = Proof(0, (), (anchor, self.leaves[anchor]))
                self._shared[key] = proof
            return proof
        if not split:  # a one-leaf tree's own slot
            return config.empty_proof
        bitfield, present = 0, []
        for i, level in self._held:
            sib = level.get((slot >> i) ^ 1)
            if sib is not None:
                bitfield |= 1 << i
                present.append(sib)
        neighbor = None
        if bitfield and slot not in self.leaves:
            low = (bitfield & -bitfield).bit_length() - 1
            other = self._lone.get((low, slot >> low))
            if other is not None:
                neighbor = (other, self.leaves[other])
        return Proof(bitfield, tuple(present), neighbor)

    def shares(self, proof: Proof) -> bool:
        """Whether ``prove`` serves this very proof to every slot of its shape."""
        return self._shared.get(proof.bitfield) is proof


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
    """Check that ``root`` commits ``leaf`` at ``slot``; ``DEFAULT_LEAF``
    asks that the slot is empty.

    The fold starts at ``low``, the proof's lowest set bit (the depth when
    none is set), from the digest of the slot's subtree there: the lone
    digest of ``leaf`` (the leaf itself at level 0), the level's default for
    an exclusion, or the lone digest of the neighbour.  A neighbour is
    refused on an inclusion, and when it is the slot itself or lies outside
    the slot's subtree at ``low`` (so also past the tree).  From ``low`` up,
    bit i of the slot picks the side at level i.  A slot outside the tree,
    or a bit at or past the depth, is refused; the proof's constructor has
    refused every other malformed field, so ``verify`` answers every input
    with True or False and raises nothing.

    Above ``top``, one past the highest set bit, every sibling is its
    level's default, so the rest of the fold depends only on the node
    reached at ``top``, its index ``slot >> top`` and ``root``.  With
    ``known``, a caller's memo of such keys that folded to their root, a hit
    returns True without hashing and a fold that succeeds adds its key,
    unless no sibling is folded: then the node is compared with the root as
    it is.  The answer is the full fold's, with no assumption on the hash:
    a proof altered above ``top`` has another ``top``, one altered below it
    reaches another node.  Coins of one block share their path above the
    smallest subtree holding them, so a wallet that keeps one memo hashes
    that path once per block.
    """
    depth = config.depth
    bitfield = proof.bitfield
    if bitfield >> depth or not 0 <= slot < config.capacity:
        return False
    # hash_pair is looked up once a call, so a hook patched in before the
    # call still sees every hash
    hash_ = hash_pair
    low = (bitfield & -bitfield).bit_length() - 1 if bitfield else depth
    # a lone digest is hashed inline, as in ``_build``: no helper call on
    # any entry a receiver audits
    if proof.neighbor is not None:
        other, other_leaf = proof.neighbor
        if leaf != DEFAULT_LEAF or other == slot or other >> low != slot >> low:
            return False
        node = hash_(other.to_bytes(8, "big"), other_leaf)
    elif leaf == DEFAULT_LEAF:
        node = DEFAULTS[low]
    else:
        node = hash_(slot.to_bytes(8, "big"), leaf) if low else leaf
    if low == depth:
        return node == root
    # fold up to ``top`` in one pass over the siblings, leaf-adjacent first:
    # ``present`` itself when every level from ``low`` sends one (the bits
    # from ``low`` are all ones), else each level spelled out, its default
    # where the bitfield has a gap.  Bit 0 of ``index`` picks the side at
    # each level, so it ends as ``slot >> top``
    top = bitfield.bit_length()
    sibs = proof.present
    run = bitfield >> low
    if run & (run + 1):
        sibs = [*DEFAULTS[low:top]]
        for sib in proof.present:
            sibs[(run & -run).bit_length() - 1] = sib
            run &= run - 1
    index = slot >> low
    for sib in sibs:
        node = hash_(sib, node) if index & 1 else hash_(node, sib)
        index >>= 1
    key = (root, top, index, node)
    if known is not None and key in known:
        return True
    for sib in DEFAULTS[top:depth]:
        node = hash_(sib, node) if index & 1 else hash_(node, sib)
        index >>= 1
    if node != root:
        return False
    if known is not None:
        known.add(key)
    return True
