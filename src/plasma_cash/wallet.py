"""Client-side coin management and root-chain watching.

A wallet stores a verified history for every coin it owns, signs outgoing
transfers, audits incoming histories before accepting them, and scans the
root-chain event log to challenge fraudulent exits of its coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .core import Address, IncludedTx, Keyring, Signer, Transaction, make_transfer_tx
from .errors import NotOwned, PlasmaError
from .history import (
    CoinHistory,
    Verdict,
    WitnessSource,
    extend_history,
    find_spend,
    valid_tip,
    verify_history,
)
from .rootchain import PlasmaContract
from .smt import Memo, SmtConfig


@dataclass
class ChallengeAction:
    """One attempted challenge, with its outcome."""

    kind: str  # "after" | "between" | "before"
    slot: int
    ok: bool
    error: Optional[str] = None


class Wallet:
    def __init__(self, signer: Signer, keyring: Keyring, contract: PlasmaContract):
        self.signer = signer
        self.keyring = keyring
        self.contract = contract
        self.config: SmtConfig = contract.config
        self.coins: Dict[int, CoinHistory] = {}
        # a copy of the history this wallet last accepted for each coin; kept
        # after the coin leaves, because it may come back
        self._checkpoints: Dict[int, CoinHistory] = {}
        # upper Merkle paths this wallet folded to a committed root, so coins
        # of one block share the hashing above their common subtree; never
        # shared with another wallet, each client pays for its own checks.
        # A proof whose every sibling is a default stores no key, so this
        # holds at most one key per (root, shared subtree) of a block of two
        # or more coins that the wallet verified
        self._known: Memo = set()
        self._event_cursor = 0

    @property
    def address(self) -> Address:
        return self.signer.address

    # -- ownership bookkeeping --

    def owns(self, slot: int) -> bool:
        return slot in self.coins

    def register_deposit(self, slot: int, deposit_block: int, itx: IncludedTx):
        """Record a coin this wallet just deposited on the root chain."""
        self.coins[slot] = CoinHistory(
            slot=slot, deposit_block=deposit_block, incl={deposit_block: itx}
        )

    def last_inclusion(self, slot: int) -> IncludedTx:
        """Last inclusion on the coin's valid ownership chain; fraudulent
        inclusions picked up while syncing are skipped."""
        if slot not in self.coins:
            raise NotOwned(f"slot {slot}")
        return valid_tip(self.coins[slot], self.keyring, self._checkpoints.get(slot))

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
        """Audit an incoming coin; store the history only when it is valid
        and ends at this wallet.  Blocks already verified on an earlier
        delivery of the coin are not verified again, and a Merkle path above
        a subtree already folded to the same root is not hashed again."""
        coin = self.contract.coins.get(history.slot)
        if coin is None:
            return Verdict(False, None, "coin unknown to the root chain")
        verdict = verify_history(
            history,
            self.contract.view,
            coin.depositor,
            self.keyring,
            self.config,
            since=self._checkpoints.get(history.slot),
            known=self._known,
        )
        if not verdict:
            return verdict
        last = history.last_inclusion()
        if last.tx.new_owner != self.address:
            return Verdict(False, None, "history does not end at this wallet")
        self.coins[history.slot] = history
        self._checkpoints[history.slot] = history.copy()
        return Verdict(True)

    # -- watching and challenging --

    def watch_and_challenge(self) -> List[ChallengeAction]:
        """Scan new root-chain events; challenge any active exit of a coin
        this wallet owns.  Non-interactive moves are preferred over the
        bonded interactive one."""
        actions: List[ChallengeAction] = []
        events = self.contract.events[self._event_cursor:]
        self._event_cursor = len(self.contract.events)
        for event in events:
            if event.kind != "ExitStarted":
                continue
            slot = event.data["slot"]
            if not self.owns(slot):
                continue
            ex = self.contract.exits.get(slot)
            if ex is None or ex.exitor == self.address:
                continue
            action = self._challenge_exit(slot, ex)
            if action is not None:
                actions.append(action)
        return actions

    def _challenge_exit(self, slot: int, ex) -> Optional[ChallengeAction]:
        history = self.coins[slot]
        exit_block = ex.exit_block
        parent_block = ex.parent_block

        # a direct spend of the exit tx cancels it outright
        after = find_spend(history, exit_block, ex.exitor, self.keyring)
        if after is not None:
            return self._attempt(
                "after", slot, lambda: self.contract.challenge_after(self.address, slot, after)
            )
        # a same-parent spend strictly between parent and exit proves a double spend
        if parent_block is not None:
            between = find_spend(
                history, parent_block, ex.parent_tx.tx.new_owner, self.keyring, before=exit_block
            )
            if between is not None:
                return self._attempt(
                    "between",
                    slot,
                    lambda: self.contract.challenge_between(self.address, slot, between),
                )
        # otherwise stake a bonded claim that the coin's history is invalid,
        # once per live exit: a restarted exit is a new exit to challenge
        mine = self.last_inclusion(slot)
        staked = any(c.challenger == self.address and not c.answered for c in ex.challenges)
        if mine.blk_number < ex.boundary and not staked:
            return self._attempt(
                "before",
                slot,
                lambda: self.contract.challenge_before(
                    self.address, slot, mine, self.contract.params.bond_amount
                ),
            )
        return None

    def _attempt(self, kind: str, slot: int, op) -> ChallengeAction:
        try:
            op()
            return ChallengeAction(kind=kind, slot=slot, ok=True)
        except PlasmaError as exc:
            return ChallengeAction(kind=kind, slot=slot, ok=False, error=exc.code)
