"""Building and verifying complete per-coin transfer histories.

A coin's history partitions its own deposit block and every operator block
committed after it into inclusions (the coin moved) and exclusions (proof
the slot was empty).  A deposit block's root is its one deposit
transaction's hash, so other coins' deposit blocks are left out: the coin
cannot be in one.  So is every block whose root is the empty-tree root,
which proves every slot empty by itself (see ``RootView``).

Every audit resumes at a ``Mark``: the last block of the coin a receiver
verified and the valid tip there.  A coin's first mark is the contract's own
record of its deposit (``CoinRecord.deposit``), so no receiver audits a
deposit entry; checkpoints would be one more source of a mark.  The
verifier walks the operator blocks past the mark in block order: each spend
must be included in its block (``RootView.operator_fault``) and spend the
previous inclusion's output (``core.spend_fault``); every other block must
prove the slot empty.  A receiver is handed only the entries past its
mark, so a hand-off costs the same however old the coin is.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from itertools import takewhile
from typing import Callable, Dict, List, NamedTuple, Optional

from . import smt
from .core import UNLINKED, Address, IncludedTx, Keyring, Reader, spend_fault
from .errors import MalformedEncoding, MissingRoot
from .smt import SmtConfig, uint


class Reason(Enum):
    """Machine-readable rejection reasons for history verification."""

    PARTITION_OVERLAP = "PartitionOverlap"
    PARTITION_GAP = "PartitionGap"
    BAD_INCLUSION_PROOF = "BadInclusionProof"
    BROKEN_PARENT_LINK = "BrokenParentLink"
    BAD_SIGNATURE = "BadSignature"
    BAD_EXCLUSION_PROOF = "BadExclusionProof"


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: Optional[Reason] = None
    detail: str = ""

    def __bool__(self):
        return self.accepted


ACCEPT = Verdict(True)


def reject(reason: Reason, detail: str = "") -> Verdict:
    return Verdict(False, reason, detail)


@dataclass
class RootView:
    """The committed roots on the root chain, and the numbers of the
    operator blocks among them whose root is not the empty-tree root, in
    ascending order.  The contract keeps one view over its own dict and
    list, so the view stays current.

    A coin's history covers its own deposit block and every operator block
    after it, never another coin's deposit block.  That is sound because:

    - the contract sets each deposit root itself, to the hash of the one
      deposit transaction of a slot it has just minted, so the block holds
      no other slot and proves none;
    - the contract keeps that block's entry on the coin's record
      (``CoinRecord.deposit``), every audit starts at it as the coin's first
      mark, and ``inclusion_fault`` accepts an entry at the deposit block
      only when it equals the record;
    - ``deposit`` skips the multiples of ``CHILD_BLOCK_INTERVAL`` and
      ``submit_block`` only ever uses ``next_operator_block``, so a deposit
      number is never an operator number, and the contract refuses an
      entry at any block that is neither the coin's deposit block nor an
      operator block;
    - no contract move takes an exclusion proof.

    An operator, Byzantine or not, commits no deposit root, so skipping
    those blocks hides nothing it could have put there.

    Nor does a history cover an operator block whose root is the empty-tree
    root ``defaults[depth]``, which the contract does not list: that root
    alone proves every slot empty, since no inclusion folds to it without a
    SHA-256 collision (a lone digest hashes 40 bytes, an internal node 64);
    every contract move takes inclusions only, so no exit changes; and a
    withheld empty block can force no protective exit.
    """

    roots: Dict[int, bytes]
    operator_blocks: List[int]

    def history_blocks(self, after: int) -> List[int]:
        """The ascending operator blocks past ``after`` that a history
        resuming at a mark there must cover."""
        blocks = self.operator_blocks
        return blocks[bisect.bisect_right(blocks, after):]

    def is_operator_block(self, number: int) -> bool:
        blocks = self.operator_blocks
        i = bisect.bisect_left(blocks, number)
        return i < len(blocks) and blocks[i] == number

    def inclusion_fault(
        self, itx: IncludedTx, slot: int, deposit: IncludedTx,
        config: SmtConfig, known: Optional[smt.Memo] = None,
    ) -> Optional[str]:
        """Why ``itx`` is not a transaction of ``slot`` proven included in
        one of the coin's blocks, or None when it is: at an operator block by
        ``operator_fault``, elsewhere only as the coin's deposit entry
        ``deposit``, the contract's record.  A missing or foreign
        transaction is refused first, at any block, by ``operator_fault``."""
        tx = itx.tx
        if tx is None or tx.slot != slot or self.is_operator_block(itx.blk_number):
            return self.operator_fault(itx, slot, config, known)
        if itx != deposit:
            return f"block {itx.blk_number}: neither an operator block nor the coin's deposit entry"
        return None

    def operator_fault(
        self, itx: IncludedTx, slot: int, config: SmtConfig, known: Optional[smt.Memo] = None,
    ) -> Optional[str]:
        """``inclusion_fault`` at an operator block, which the caller knows
        ``itx.blk_number`` to be: ``smt.verify`` against the caller's memo
        ``known``, after refusing a missing or foreign transaction and a
        deposit-shaped one (no spend names block 0)."""
        tx = itx.tx
        if tx is None or tx.slot != slot:
            return "transaction missing or for another slot"
        number = itx.blk_number
        if tx.parent_block == 0:
            return f"is a deposit transaction at operator block {number}"
        if smt.verify(slot, tx.digest, itx.proof, self.roots[number], config, known):
            return None
        return "inclusion proof invalid"


@dataclass
class CoinHistory:
    """A coin's entries from its deposit, or past a receiver's mark.  A wallet's
    log keeps them in ascending block order, so a map's last key is its highest."""

    slot: int
    deposit_block: int
    incl: Dict[int, IncludedTx] = field(default_factory=dict)
    excl: Dict[int, IncludedTx] = field(default_factory=dict)

    def last_block(self) -> int:
        """The highest block covered, the deposit block when no entry is:
        each map's last key, read without a call, is its highest."""
        last = self.deposit_block
        for entries in (self.incl, self.excl):
            for blk in reversed(entries):
                last = blk if blk > last else last
                break
        return last

    def past(self, block: int) -> "CoinHistory":
        """A fresh history of the entries past ``block``: new maps, the frozen
        entries shared, in this history's order."""
        incl = _past(self.incl, block) if self.incl else {}
        excl = _past(self.excl, block) if self.excl else {}
        return CoinHistory(self.slot, self.deposit_block, incl, excl)

    # -- canonical encoding --

    def encode(self, config: SmtConfig) -> bytes:
        """``uint(slot) || uint(deposit_block)``, then the inclusions and the
        exclusions, each a ``uint`` count and the entries in block order."""
        out = [uint(self.slot), uint(self.deposit_block)]
        for entries in (self.incl, self.excl):
            out.append(uint(len(entries)))
            out += [entries[blk].encode(config) for blk in sorted(entries)]
        return b"".join(out)

    @classmethod
    def decode(cls, data: bytes, config: SmtConfig) -> "CoinHistory":
        r = Reader(data, "coin history")
        slot, deposit_block = r.uint(), r.uint()
        maps = []
        for _ in range(2):
            items = [IncludedTx.read(r, config) for _ in range(r.uint())]
            entries = {itx.blk_number: itx for itx in items}
            if len(entries) != len(items) or list(entries) != sorted(entries):
                raise MalformedEncoding("coin history: entries not in ascending block order")
            maps.append(entries)
        r.end()
        return cls(slot, deposit_block, maps[0], maps[1])


def _past(entries: Dict[int, IncludedTx], block: int) -> Dict[int, IncludedTx]:
    tail = list(takewhile(block.__lt__, reversed(entries)))  # the blocks past ``block``, last first
    return {blk: entries[blk] for blk in reversed(tail)}


class Mark(NamedTuple):
    """The last block of a coin a wallet verified, and the valid tip there."""

    block: int
    tip: IncludedTx


def verify_history(
    history: CoinHistory,
    view: RootView,
    keyring: Keyring,
    config: SmtConfig,
    mark: Mark,
    known: Optional[smt.Memo] = None,
) -> Verdict:
    """Audit the entries of a coin past ``mark``, the caller's record of the
    coin verified up to its block, against the committed roots.

    Returns ACCEPT or a reject verdict with a reason code.  A view that
    cannot cover the claimed blocks raises MissingRoot instead: the caller
    must distinguish "unverifiable" from "fraudulent".

    The audit walks ``view.history_blocks(mark.block)``, the ascending
    operator blocks the partition must equal: each has a root and sits in
    exactly one map, and the maps hold no more entries.  Only a partition
    that fails is named, by ``_partition_fault``.  Then the inclusions and
    the exclusions are checked in the list's order, every check on each,
    the ownership chain resuming at ``mark.tip``; an empty map is not
    walked.  Committed roots are append-only, so the verdict is the full
    walk's over the verified entries and these.

    ``known`` is the caller's memo of verified upper Merkle paths, handed to
    every ``smt.verify``; it changes the cost, never the verdict.
    """
    slot, incl, excl, roots = history.slot, history.incl, history.excl, view.roots
    blocks = view.history_blocks(mark.block)
    if len(incl) + len(excl) != len(blocks):
        return _partition_fault(history, view, blocks)
    for blk in blocks:
        if blk not in roots or (blk in incl) is (blk in excl):
            return _partition_fault(history, view, blocks)

    last_block, last_owner = mark.tip.blk_number, mark.tip.tx.new_owner
    for blk in blocks if incl else ():
        itx = incl.get(blk)
        if itx is None:
            continue
        if itx.blk_number != blk:
            return reject(Reason.BAD_INCLUSION_PROOF, f"block {blk}: malformed entry")
        fault = view.operator_fault(itx, slot, config, known)
        if fault is not None:
            return reject(Reason.BAD_INCLUSION_PROOF, f"block {blk}: {fault}")
        # reject double spends and forgeries: each spend must chain the
        # previous inclusion and be signed by its owner
        fault = spend_fault(itx.tx, last_block, last_owner, keyring)
        if fault is not None:
            reason = Reason.BROKEN_PARENT_LINK if fault == UNLINKED else Reason.BAD_SIGNATURE
            return reject(reason, f"block {blk}: {fault}")
        last_block, last_owner = blk, itx.tx.new_owner

    for blk in blocks if excl else ():
        itx = excl.get(blk)
        if itx is None:
            continue
        if itx.tx is not None or itx.blk_number != blk:
            return reject(Reason.BAD_EXCLUSION_PROOF, f"block {blk}: not an exclusion")
        if not smt.verify(slot, smt.DEFAULT_LEAF, itx.proof, roots[blk], config, known):
            return reject(Reason.BAD_EXCLUSION_PROOF, f"block {blk}: proof invalid")

    return ACCEPT


def _partition_fault(history: CoinHistory, view: RootView, blocks: List[int]) -> Verdict:
    """The fault of a partition that is not ``blocks``, in one order: a
    claimed block with no root raises MissingRoot; then the blocks in both
    maps; then the gap."""
    incl, excl = history.incl, history.excl
    claimed = incl.keys() | excl.keys()
    for blk in claimed:
        if blk not in view.roots:
            raise MissingRoot(f"no committed root for block {blk}")
    overlap = incl.keys() & excl.keys()
    if overlap:
        return reject(Reason.PARTITION_OVERLAP, f"blocks {sorted(overlap)}")
    required = set(blocks)
    missing = sorted(required - claimed)
    extra = sorted(claimed - required)
    return reject(Reason.PARTITION_GAP, f"missing={missing} extra={extra}")


WitnessSource = Callable[[int, int], IncludedTx]


def extend_history(
    history: CoinHistory,
    view: RootView,
    witness: WitnessSource,
) -> CoinHistory:
    """Fill in witnesses for the history's blocks it does not cover yet.

    A history covers a prefix of the operator blocks after its deposit
    block, so only those past the highest covered one, or past the deposit
    block for ``CoinHistory(slot, deposit_block)``, need fetching.
    WitnessUnavailable from the source propagates: withheld data is never
    papered over.
    """
    for blk in view.history_blocks(history.last_block()):
        itx = witness(history.slot, blk)
        if itx.tx is None:
            history.excl[blk] = itx
        else:
            history.incl[blk] = itx
    return history


def find_spend(
    history: CoinHistory,
    parent: int,
    owner: Address,
    keyring: Keyring,
    before: Optional[int] = None,
) -> Optional[IncludedTx]:
    """Earliest inclusion after block ``parent`` (and before block
    ``before``, when given) that spends ``parent`` and is signed by
    ``owner``, or None.  One loop reads the log's inclusions from the last
    back and stops at the first block at or below ``parent``; the log is in
    ascending block order, so the entries that name ``parent`` and fall in
    the range are gathered last first, and their signatures are then
    recovered earliest first."""
    incl = history.incl
    spends = []
    for blk in reversed(incl):
        if blk <= parent:
            break
        itx = incl[blk]
        tx = itx.tx
        if tx is not None and tx.parent_block == parent and (before is None or itx.blk_number < before):
            spends.append(itx)
    for itx in reversed(spends):
        if spend_fault(itx.tx, parent, owner, keyring) is None:
            return itx
    return None


def valid_tip(history: CoinHistory, keyring: Keyring, tip: IncludedTx) -> IncludedTx:
    """Last inclusion on the coin's valid ownership chain.

    Walks from ``tip``, the valid tip at a block the caller verified (the
    deposit entry at the first mark), at each step following only correctly
    signed children of the current tip; among same-parent siblings the
    earliest inclusion wins.  Fraudulent inclusions a wallet picked up while
    syncing (double spends, forged spends) are skipped, so the tip is what
    the wallet can legitimately spend or exit with.  Up to ``tip``'s block
    the inclusions are one chain and every other block proves the slot
    empty, so any other spend of a block in the chain comes later than the
    chain's own, and a walk from the deposit passes ``tip``.
    """
    while True:
        spend = find_spend(history, tip.blk_number, tip.tx.new_owner, keyring)
        if spend is None:
            return tip
        tip = spend
