"""Shared pytest hooks and proof helpers.

Acceptance tests register their PASS/FAIL verdict lines here; the terminal
summary hook replays them after the run, outside pytest's output capture,
so every verdict is visible in the run log.  ``proof_from_siblings`` and
``siblings_of`` convert between a proof and its full sibling list, one
digest per level, ``set_bits`` lists a bitfield's set levels, ``flip`` is
the one way tests tamper with a proof,
``fold`` is the reference verifier over such a list, and ``whole`` reads
exactly one encoding.
"""

import hashlib
from typing import List, Optional

from plasma_cash.smt import DEFAULT_LEAF, DEFAULTS, Proof, Reader, hash_pair

acceptance_lines: List[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def proof_from_siblings(siblings, neighbor=None) -> Proof:
    """Reference builder: the proof of a full sibling list, leaf-adjacent
    first, sending each sibling that is not its level's default."""
    sent = [(i, sib) for i, sib in enumerate(siblings) if sib != DEFAULTS[i]]
    return Proof(sum(1 << i for i, _ in sent), tuple(sib for _, sib in sent), neighbor)


def set_bits(bitfield: int):
    """The levels whose bit is set in ``bitfield``, lowest first."""
    while bitfield:
        bit = bitfield & -bitfield
        yield bit.bit_length() - 1
        bitfield ^= bit


def siblings_of(proof: Proof, depth: int) -> list:
    """A proof's full sibling list: each present sibling at its set bit, the
    level's default elsewhere."""
    sibs = list(DEFAULTS[:depth])
    for i, sib in zip(set_bits(proof.bitfield), proof.present):
        sibs[i] = sib
    return sibs


def flip(proof: Proof, level: int = 0) -> Proof:
    """The same proof with every byte of its level-``level`` sibling xored
    with 1: a default sibling becomes a sent one."""
    sibs = siblings_of(proof, max(proof.bitfield.bit_length(), level + 1))
    sibs[level] = bytes(b ^ 1 for b in sibs[level])
    return proof_from_siblings(sibs, proof.neighbor)


def lone(slot: int, leaf: bytes) -> bytes:
    """A subtree's digest when ``leaf`` at ``slot`` is its only leaf."""
    return hashlib.sha256(slot.to_bytes(8, "big") + leaf).digest()


def fold_root(slot: int, leaf: bytes, siblings, neighbor=None) -> Optional[bytes]:
    """Reference fold over a full sibling list: start at the lowest
    non-default sibling from the digest of the slot's subtree there, then
    hash every level, no shortcut; None for a neighbour that cannot stand
    there."""
    low = next((i for i, (s, d) in enumerate(zip(siblings, DEFAULTS)) if s != d), len(siblings))
    if neighbor is not None:
        other, other_leaf = neighbor
        if leaf != DEFAULT_LEAF or other == slot or other >> low != slot >> low:
            return None
        node = lone(other, other_leaf)
    elif leaf == DEFAULT_LEAF:
        node = DEFAULTS[low]
    else:
        node = lone(slot, leaf) if low else leaf
    for i in range(low, len(siblings)):
        sib = siblings[i]
        node = hash_pair(sib, node) if (slot >> i) & 1 else hash_pair(node, sib)
    return node


def fold(slot: int, leaf: bytes, siblings, root: bytes, neighbor=None) -> bool:
    """Whether the reference fold reaches ``root``."""
    return fold_root(slot, leaf, siblings, neighbor) == root


def whole(data: bytes, read):
    """``read(reader)`` over exactly ``data``: a short or padded input raises."""
    r = Reader(data, "test")
    value = read(r)
    r.end()
    return value
