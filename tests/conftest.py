"""Shared pytest hooks and proof helpers.

Acceptance tests register their PASS/FAIL verdict lines here; the terminal
summary hook replays them after the run, outside pytest's output capture,
so every verdict is visible in the run log.  ``proof_from_siblings`` and
``siblings_of`` convert between a proof and its full sibling list, one
digest per level, ``set_bits`` lists a bitfield's set levels, ``flip`` is
the one way tests tamper with a proof,
``fold`` is the reference verifier over such a list, ``DenseTree`` is the
brute-force tree oracle with its ``reference_proof``, and ``whole`` reads
exactly one encoding.  ``Chain`` is the one hand-built plasmachain, with
its block-replay ownership oracle.
"""

import hashlib
from typing import List, Optional

from plasma_cash.core import IncludedTx, Keyring, PlasmaBlock, make_transfer_tx
from plasma_cash.errors import MalformedSignature
from plasma_cash.history import CoinHistory, Mark, RootView, extend_history, verify_history
from plasma_cash.smt import DEFAULT_LEAF, DEFAULTS, Proof, Reader, SmtConfig, hash_pair

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


def reference_proof(config: SmtConfig, leaves, slot: int, node) -> Proof:
    """The proof of ``slot`` from ``node(level, index)``, which gives a
    subtree's digest and occupied slots: the sibling at every level, except
    that an absent slot whose lowest non-empty sibling holds one leaf names
    that leaf as its neighbour and sends the default there instead."""
    sibs = [node(i, (slot >> i) ^ 1) for i in range(config.depth)]
    digests = [digest for digest, _ in sibs]
    neighbor = None
    below = next((i for i, (_, slots) in enumerate(sibs) if slots), None)
    if slot not in leaves and below is not None and len(sibs[below][1]) == 1:
        (other,) = sibs[below][1]
        neighbor = (other, leaves[other])
        digests[below] = config.defaults[below]
    return proof_from_siblings(digests, neighbor)


class DenseTree:
    """Brute-force oracle: materializes every node of the full tree, each the
    level default, a lone leaf's digest, or the hash of its children."""

    def __init__(self, config: SmtConfig, leaves):
        self.config, self.leaves = config, leaves
        level = [(leaves.get(i, DEFAULT_LEAF), [i] if i in leaves else []) for i in range(config.capacity)]
        self.levels = [level]
        while len(level) > 1:
            height = len(self.levels)
            parents = []
            for (left, lslots), (right, rslots) in zip(level[::2], level[1::2]):
                slots = lslots + rslots
                if not slots:
                    digest = config.defaults[height]
                elif len(slots) == 1:
                    digest = lone(slots[0], leaves[slots[0]])
                else:
                    digest = hash_pair(left, right)
                parents.append((digest, slots))
            level = parents
            self.levels.append(level)

    @property
    def root(self):
        return self.levels[-1][0][0]

    def prove(self, slot):
        return reference_proof(self.config, self.leaves, slot, lambda i, j: self.levels[i][j])


def whole(data: bytes, read):
    """``read(reader)`` over exactly ``data``: a short or padded input raises."""
    r = Reader(data, "test")
    value = read(r)
    r.end()
    return value


class Chain:
    """Hand-built plasmachain at depth 16, built as the contract builds one:
    operator blocks take the multiples of 1000 and deposits the numbers
    between; a deposit block's root is its one transaction's hash and its
    entry, on the empty proof, the contract's record; the view lists no
    block whose root is the empty-tree root.  Witnesses come from the
    blocks, and ``replay_owner`` is an ownership oracle that shares no code
    with the verifier."""

    config = SmtConfig(depth=16)

    def __init__(self):
        self.keyring = Keyring()
        self.blocks = {}  # operator blocks
        self.deposits = {}  # deposit entries, as the contract records them

    def signer(self, name):
        return self.keyring.new_signer(name)

    def add_block(self, number, txs):
        if number % 1000:  # a deposit: its one transaction's hash is the root
            (tx,) = txs.values()
            self.deposits[number] = IncludedTx(tx, number, self.config.empty_proof)
        else:
            self.blocks[number] = PlasmaBlock.build(number, txs, self.config)

    def add_idle_block(self, number):
        """An operator block where slot 0 stays put and slot 1 moves, so the
        contract lists it and slot 0's history holds an exclusion there."""
        other = self.signer("other")
        self.add_block(number, {1: make_transfer_tx(other, 1, 1, other.address)})

    def view(self):
        roots = {n: b.root for n, b in self.blocks.items()}
        roots.update((n, itx.tx.digest) for n, itx in self.deposits.items())
        empty = self.config.defaults[self.config.depth]
        return RootView(roots, sorted(n for n, b in self.blocks.items() if b.root != empty))

    def witness(self, slot, number):
        return self.blocks[number].prove(slot)

    def history(self, slot=0, deposit_block=1):
        """The coin's entries past its deposit, what a first-time receiver is handed."""
        return extend_history(CoinHistory(slot, deposit_block), self.view(), self.witness)

    def deposit_mark(self, slot=0, deposit_block=1):
        """The coin's first mark: its deposit block and the entry there, which
        the contract records."""
        return Mark(deposit_block, self.deposits[deposit_block])

    def audit(self, history, slot=0, deposit_block=1):
        """``verify_history`` from the coin's first mark."""
        mark = self.deposit_mark(slot, deposit_block)
        return verify_history(history, self.view(), self.keyring, self.config, mark)

    def replay_owner(self, slot=0, deposit_block=1):
        """Independent ground truth: replay the raw blocks past the deposit,
        skipping every spend that names another block or that its owner did
        not sign; a malformed signature is signed by no one."""
        owner, last = self.deposits[deposit_block].tx.new_owner, deposit_block
        for number in sorted(self.blocks):
            if number <= deposit_block:
                continue
            tx = self.blocks[number].txs.get(slot)
            if tx is None or tx.parent_block != last:
                continue
            try:
                if self.keyring.recover(tx.digest, tx.signature) != owner:
                    continue
            except MalformedSignature:
                continue
            owner, last = tx.new_owner, number
        return owner, last
