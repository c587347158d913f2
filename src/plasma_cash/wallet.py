"""Client-side coin management and root-chain watching.

A wallet keeps an append-only log and a mark of the last block it verified
for every coin it has held, signs transfers, audits only the entries past
its mark, challenges each live exit of a coin it holds (read from the
contract's state, not its event log), and answers a bonded challenge of
its own exit from its log.  A coin it has not verified yet has the
contract's deposit record as its mark, and its log starts at that record's
entry, so a first-time receiver and a returning one take the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import Address, IncludedTx, Keyring, Signer, Transaction, make_transfer_tx
from .errors import NotOwned, PlasmaError
from .history import (
    ACCEPT,
    CoinHistory,
    Mark,
    Verdict,
    WitnessSource,
    extend_history,
    find_spend,
    valid_tip,
    verify_history,
)
from .rootchain import Exit, PlasmaContract
from .smt import Memo, SmtConfig


@dataclass
class ChallengeAction:
    """One attempted challenge, with its outcome."""

    kind: str  # a challenge, "after" | "between" | "before", or "respond" to a "before"
    slot: int
    ok: bool
    error: Optional[str] = None


class Wallet:
    def __init__(self, signer: Signer, keyring: Keyring, contract: PlasmaContract):
        self.signer = signer
        self.address: Address = signer.address
        self.keyring = keyring
        self.contract = contract
        self.config: SmtConfig = contract.config
        self.coins: Dict[int, CoinHistory] = {}  # the logs of the coins owned
        # every coin deposited or accepted, kept after it leaves since it may
        # come back: entries up to the mark were verified, later ones synced
        self.logs: Dict[int, CoinHistory] = {}
        self.marks: Dict[int, Mark] = {}
        # upper Merkle paths this wallet folded to a committed root, so coins
        # of one block share the hashing above their common subtree; never
        # shared with another wallet, each client pays for its own checks
        self._known: Memo = set()
        # per coin, the exit this wallet last staked a ``before`` bond on: an
        # answer removes the challenge from the exit, not the stake from here
        self._staked: Dict[int, Exit] = {}

    # -- ownership bookkeeping --

    def owns(self, slot: int) -> bool:
        return slot in self.coins

    def register_deposit(self, slot: int):
        """Record a coin this wallet deposited: its log starts at the contract's deposit entry."""
        self.coins[slot] = self._log(slot)

    def _log(self, slot: int) -> CoinHistory:
        """The coin's stored log, else a new one at the contract's deposit entry."""
        if slot not in self.logs:
            deposit = self.contract.coins[slot].deposit
            self.logs[slot] = CoinHistory(slot, deposit.blk_number, {deposit.blk_number: deposit})
        return self.logs[slot]

    def mark(self, slot: int) -> Mark:
        """The last block of the coin this wallet verified and the valid tip
        there; before it accepts the coin, the contract's deposit record."""
        if slot in self.marks:
            return self.marks[slot]
        deposit = self.contract.coins[slot].deposit
        return Mark(deposit.blk_number, deposit)

    def forget(self, slot: int):
        """Drop a withdrawn coin's log and mark: it never comes back."""
        for held in (self.coins, self.logs, self.marks, self._staked):
            held.pop(slot, None)

    def last_inclusion(self, slot: int) -> IncludedTx:
        """Last inclusion on the coin's valid ownership chain, walked from
        the mark; fraudulent inclusions picked up while syncing are skipped."""
        if slot not in self.coins:
            raise NotOwned(f"slot {slot}")
        return valid_tip(self.coins[slot], self.keyring, self.mark(slot).tip)

    def sync(self, slot: int, witness: WitnessSource):
        """Pull witnesses for any committed blocks the stored history lacks.
        Propagates WitnessUnavailable if the operator withholds data."""
        if slot not in self.coins:
            raise NotOwned(f"slot {slot}")
        extend_history(self.coins[slot], self.contract.view, witness)

    # -- transfers --

    def send_coin(self, slot: int, new_owner: Address) -> Transaction:
        parent = self.last_inclusion(slot)
        return make_transfer_tx(self.signer, slot, parent.blk_number, new_owner)

    def receive_coin(self, history: CoinHistory) -> Verdict:
        """Audit an incoming coin and accept it only when it is valid and ends
        here.  It must come as exactly its entries past this wallet's mark,
        which alone places the partition (the handed ``deposit_block`` is
        not read); a Merkle path above a subtree already folded to the same
        root is not hashed again.  A refusal leaves the log and mark as they
        were."""
        slot = history.slot
        if slot not in self.contract.coins:
            return Verdict(False, None, "coin unknown to the root chain")
        mark = self.mark(slot)
        view = self.contract.view
        verdict = verify_history(history, view, self.keyring, self.config, mark, self._known)
        if not verdict.accepted:
            return verdict
        # the entries in block order, whatever order the handed maps are in;
        # an empty map is neither sorted nor spliced in
        incl = sorted(history.incl.items()) if history.incl else ()
        last = incl[-1][1] if incl else mark.tip
        if last.tx.new_owner != self.address:
            return Verdict(False, None, "history does not end at this wallet")
        excl = sorted(history.excl.items()) if history.excl else ()
        log = self._log(slot)
        # drop what sync appended past the mark from both maps; the new
        # entries replace it, and the last of them is the new mark's block
        block = mark.block
        for entries, added in ((log.incl, incl), (log.excl, excl)):
            while entries and next(reversed(entries)) > mark.block:
                entries.popitem()
            if added:
                entries.update(added)
                if added[-1][0] > block:
                    block = added[-1][0]
        self.coins[slot] = log
        self.marks[slot] = Mark(block, last)
        return ACCEPT

    # -- watching and challenging --

    def watch_and_challenge(self) -> List[ChallengeAction]:
        """Defend each live exit of a coin this wallet holds, read from the
        contract's ``exits`` on every pass: challenge one it did not start,
        and answer each pending ``before`` challenge of one it did.  A refused
        move is tried again on the next pass; staking at most one ``before``
        bond per live exit, answered or not, keeps a revisited exit from
        being bonded again."""
        tried: List[Optional[ChallengeAction]] = []  # None where no move was made
        for slot, ex in tuple(self.contract.exits.items()):  # a won challenge ends its exit
            if slot not in self.coins:
                continue
            if ex.exitor != self.address:
                tried.append(self._challenge_exit(slot, ex))
            else:
                for challenge in tuple(ex.challenges):  # an answer removes its challenge
                    tried.append(self._respond(slot, ex, challenge))
        return [action for action in tried if action is not None]

    def _respond(self, slot: int, ex, challenge) -> Optional[ChallengeAction]:
        """Answer a pending challenge of this wallet's exit with the spend of
        the challenged entry, by its new owner, in (challenge block, exit block]."""
        entry = challenge.tx
        answer = find_spend(
            self.coins[slot], entry.blk_number, entry.tx.new_owner, self.keyring,
            before=ex.exit_block + 1,
        )
        if answer is None:
            return None
        move = self.contract.respond_challenge_before
        return self._attempt("respond", slot, move, challenge.challenge_id, answer)

    def _challenge_exit(self, slot: int, ex) -> Optional[ChallengeAction]:
        history = self.coins[slot]
        exit_block = ex.exit_block

        # a direct spend of the exit tx cancels it outright
        after = find_spend(history, exit_block, ex.exitor, self.keyring)
        if after is not None:
            return self._attempt("after", slot, self.contract.challenge_after, after)
        # a same-parent spend strictly between parent and exit proves a double spend
        if ex.parent_block is not None:
            between = find_spend(
                history, ex.parent_block, ex.parent_tx.tx.new_owner, self.keyring, before=exit_block
            )
            if between is not None:
                return self._attempt("between", slot, self.contract.challenge_between, between)
        # otherwise stake a bonded claim that the coin's history is invalid,
        # once per live exit, answered or not (a restarted exit is a new one)
        mine = self.last_inclusion(slot)
        if mine.blk_number < ex.boundary and self._staked.get(slot) is not ex:
            action = self._attempt("before", slot, self.contract.challenge_before, mine)
            if action.ok:
                self._staked[slot] = ex
            return action
        return None

    def _attempt(self, kind: str, slot: int, move, *args) -> ChallengeAction:
        """Make the contract ``move`` as this wallet on ``slot``."""
        try:
            move(self.address, slot, *args)
            return ChallengeAction(kind=kind, slot=slot, ok=True)
        except PlasmaError as exc:
            return ChallengeAction(kind=kind, slot=slot, ok=False, error=exc.code)
