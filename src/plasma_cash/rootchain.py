"""Simulated main-chain settlement contract.

Holds deposited coin value and committed block roots, and arbitrates the
exit game: exits with bonds, the three challenge moves (a direct spend
after the exit, a same-parent spend between parent and exit, and bonded
interactive challenges from deeper history), finalization after a maturity
period, and withdrawal.

Every state change appends an ``Event`` to ``events``, the run's record
for reports; watchers read ``exits``.  A coin's state changes only through
``PlasmaContract._move``, which refuses any pair ``TRANSITIONS`` does not list,
and every exit ends through ``_end_exit``, the one payout of its bonds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, List, Optional

from .core import Address, IncludedTx, Keyring, make_deposit_tx, spend_fault
from .errors import (
    BadDenomination,
    BadProof,
    BadSignature,
    IllegalTransition,
    InsufficientBalance,
    NoSuchChallenge,
    NotMature,
    OutOfRange,
    SlotOutOfRange,
    UnknownCoin,
    Unlinked,
    WrongCaller,
    WrongState,
)
from .history import RootView
from .smt import SmtConfig


class CoinState(Enum):
    DEPOSITED = "DEPOSITED"
    EXITING = "EXITING"
    EXITED = "EXITED"
    WITHDRAWN = "WITHDRAWN"


#: the coin lifecycle, every legal (from, to) pair: an exit starts, is
#: cancelled (reopening the coin) or finalizes, and an exited coin is withdrawn
TRANSITIONS = frozenset({
    (CoinState.DEPOSITED, CoinState.EXITING),
    (CoinState.EXITING, CoinState.DEPOSITED),
    (CoinState.EXITING, CoinState.EXITED),
    (CoinState.EXITED, CoinState.WITHDRAWN),
})

#: deposits take the block numbers between its multiples, operator blocks the multiples
CHILD_BLOCK_INTERVAL = 1000


@dataclass
class CoinRecord:
    slot: int
    owner: Address  # depositor, replaced by the exitor on successful exit
    denomination: int
    state: CoinState
    #: the deposit block's entry, the coin's first mark and the one entry
    #: the contract takes at that block; it names the depositor
    deposit: IncludedTx

    @property
    def deposit_block(self) -> int:
        return self.deposit.blk_number


@dataclass
class PendingChallenge:
    challenge_id: int
    challenger: Address
    tx: IncludedTx


@dataclass
class Exit:
    exitor: Address
    parent_tx: Optional[IncludedTx]
    exit_tx: IncludedTx
    #: the clock from which ``finalize_exit`` settles the exit
    matures_at: int
    #: the challenges still unanswered; a response removes its challenge
    challenges: List[PendingChallenge] = field(default_factory=list)

    @property
    def exit_block(self) -> int:
        return self.exit_tx.blk_number

    @property
    def parent_block(self) -> Optional[int]:
        return self.parent_tx.blk_number if self.parent_tx is not None else None

    @property
    def boundary(self) -> int:
        """Interactive challenges must come before this block: the parent
        block, or the exit block of a deposit exit."""
        return self.exit_block if self.parent_tx is None else self.parent_tx.blk_number


@dataclass(frozen=True)
class ChainParams:
    maturity_period: int = 20
    bond_amount: int = 100
    smt_depth: int = 64

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:
                raise TypeError(f"{f.name} must be an integer, got {value!r}")
        # a bond of zero or less would pay an exitor to exit
        if self.bond_amount <= 0:
            raise ValueError(f"bond_amount must be positive, got {self.bond_amount}")
        if self.maturity_period < 0:
            raise ValueError(f"maturity_period must not be negative, got {self.maturity_period}")
        # built once, outside the fields; it refuses a depth outside [1, 64]
        object.__setattr__(self, "smt_config", SmtConfig(depth=self.smt_depth))


@dataclass
class Event:
    kind: str
    data: dict


class PlasmaContract:
    """Single-owner state machine; all mutations go through its methods."""

    def __init__(self, operator: Address, keyring: Keyring, params: ChainParams = ChainParams()):
        self.operator = operator
        self.keyring = keyring
        self.params = params
        self.config = params.smt_config
        self.roots: Dict[int, bytes] = {}
        # ascending (submit_block counts up): every operator block whose root
        # is not the empty-tree root, the blocks a coin history covers
        self.operator_blocks: List[int] = []
        self.view = RootView(self.roots, self.operator_blocks, self.config, keyring)
        self.current_block = 0
        self.coins: Dict[int, CoinRecord] = {}
        self.exits: Dict[int, Exit] = {}
        self.balances: Dict[Address, int] = {}
        self.clock = 0
        self.value_escrow = 0
        self.bond_escrow = 0
        self.events: List[Event] = []
        self._next_challenge_id = 0

    # -- plumbing --

    def _emit(self, kind: str, **data):
        self.events.append(Event(kind, data))

    def balance_of(self, addr: Address) -> int:
        return self.balances.get(addr, 0)

    def _debit(self, addr: Address, amount: int):
        if self.balance_of(addr) < amount:
            raise InsufficientBalance(f"{addr} holds {self.balance_of(addr)}, needs {amount}")
        self.balances[addr] = self.balance_of(addr) - amount

    def _credit(self, addr: Address, amount: int):
        self.balances[addr] = self.balance_of(addr) + amount

    def _take_bond(self, addr: Address, amount: int):
        """Move a bond from ``addr``'s balance into escrow: every bond enters here."""
        self._debit(addr, amount)
        self.bond_escrow += amount

    def _pay_bond(self, addr: Address, amount: int):
        """Pay ``amount`` of escrowed bonds to ``addr``: every bond leaves here."""
        self.bond_escrow -= amount
        self._credit(addr, amount)

    def total_value(self) -> int:
        """Conserved quantity: account balances plus both escrows."""
        return sum(self.balances.values()) + self.value_escrow + self.bond_escrow

    def advance_time(self, dt: int = 1):
        self.clock += dt

    @property
    def next_operator_block(self) -> int:
        return (self.current_block // CHILD_BLOCK_INTERVAL + 1) * CHILD_BLOCK_INTERVAL

    def _coin_for(self, slot: int, state: CoinState) -> CoinRecord:
        """The coin at ``slot`` if ``TRANSITIONS`` lets it move to ``state``:
        UnknownCoin if no coin was minted there, else WrongState."""
        coin = self.coins.get(slot)
        if coin is None:
            raise UnknownCoin(f"slot {slot}")
        if (coin.state, state) not in TRANSITIONS:
            raise WrongState(f"coin is {coin.state.value}, cannot become {state.value}")
        return coin

    def _move(self, coin: CoinRecord, state: CoinState):
        """The one write of a coin's state.  A pair ``TRANSITIONS`` does not
        list raises IllegalTransition and leaves the state as it was."""
        if (coin.state, state) not in TRANSITIONS:
            raise IllegalTransition(f"slot {coin.slot}: {coin.state.value} -> {state.value}")
        coin.state = state

    def _check_included(self, slot: int, itx: IncludedTx, what: str):
        """Raise BadProof unless ``itx`` is a transaction of ``slot`` proven
        included in one of the coin's blocks (``RootView.inclusion_fault``).
        ``what`` names the entry in the error."""
        fault = self.view.inclusion_fault(itx, slot, self.coins[slot].deposit)
        if fault is not None:
            raise BadProof(f"{what} {fault}")

    def _check_spend(self, what: str, slot: int, spend: IncludedTx, parent: IncludedTx, upto: int):
        """Raise unless ``spend`` is an included spend of ``parent``'s output
        in a block after the parent's and at most ``upto`` (``current_block``
        bounds nothing: every included entry is committed).  Every move that
        takes a spend asks here, in one order: BadProof, Unlinked for a spend
        of another block, OutOfRange for a block out of range, BadSignature."""
        self._check_included(slot, spend, what)
        tx, low = spend.tx, parent.blk_number
        if tx.parent_block != low:
            raise Unlinked(f"{what} spends block {tx.parent_block}, not {low}")
        if not low < spend.blk_number <= upto:
            raise OutOfRange(f"{what} block {spend.blk_number} is outside ({low}, {upto}]")
        fault = spend_fault(tx, low, parent.tx.new_owner, self.keyring)
        if fault is not None:
            raise BadSignature(f"{what}: {fault}")

    # -- deposits and block commitments --

    def deposit(self, depositor: Address, denomination: int) -> CoinRecord:
        """Lock value, mint a coin, and append its one-transaction block,
        whose root is the deposit transaction's hash and whose entry, with
        the empty proof, the coin's record keeps."""
        if type(denomination) is not int or denomination <= 0:
            raise BadDenomination(f"denomination must be a positive integer, got {denomination!r}")
        slot = len(self.coins)  # no record is ever removed
        if slot >= self.config.capacity:
            raise SlotOutOfRange(f"all 2^{self.config.depth} slots are minted")
        self._debit(depositor, denomination)
        self.value_escrow += denomination

        number = self.current_block + 1
        if number % CHILD_BLOCK_INTERVAL == 0:
            number += 1  # interval numbers belong to operator blocks
        self.current_block = number

        tx = make_deposit_tx(slot, depositor)
        self.roots[number] = tx.digest
        coin = self.coins[slot] = CoinRecord(
            slot=slot,
            owner=depositor,
            denomination=denomination,
            state=CoinState.DEPOSITED,
            deposit=IncludedTx(tx, number, self.config.empty_proof),
        )
        self._emit(
            "Deposit",
            slot=slot,
            depositor=depositor.hex,
            denomination=denomination,
            block=number,
        )
        return coin

    def submit_block(self, caller: Address, root: bytes) -> int:
        if caller != self.operator:
            raise WrongCaller("only the registered operator commits roots")
        number = self.next_operator_block
        self.roots[number] = root
        if root != self.config.defaults[self.config.depth]:
            # the empty-tree root proves every slot empty: no history lists it
            self.operator_blocks.append(number)
        self.current_block = number
        self._emit("BlockSubmitted", block=number, root=root.hex())
        return number

    # -- exits --

    def start_exit(
        self,
        caller: Address,
        slot: int,
        parent_tx: Optional[IncludedTx],
        exit_tx: IncludedTx,
    ) -> int:
        """Exit ``slot`` with ``exit_tx``, a spend of ``parent_tx`` (None for
        a deposit exit); the contract escrows ``params.bond_amount`` from the
        caller."""
        coin = self._coin_for(slot, CoinState.EXITING)
        if exit_tx.tx is None or exit_tx.tx.slot != slot:
            raise BadProof("exit transaction missing or for another slot")
        if caller != exit_tx.tx.new_owner:
            raise WrongCaller("only the recipient of the exit tx may exit")

        if parent_tx is None:
            # deposit-exit: the coin was never transferred
            if exit_tx != coin.deposit:
                raise BadProof("a deposit exit takes only the coin's deposit entry")
        else:
            self._check_included(slot, parent_tx, "parent")
            self._check_spend("exit", slot, exit_tx, parent_tx, self.current_block)

        bond = self.params.bond_amount
        self._take_bond(caller, bond)
        ex = self.exits[slot] = Exit(
            exitor=caller,
            parent_tx=parent_tx,
            exit_tx=exit_tx,
            matures_at=self.clock + self.params.maturity_period,
        )
        self._move(coin, CoinState.EXITING)
        self._emit(
            "ExitStarted",
            slot=slot,
            exitor=caller.hex,
            exit_block=ex.exit_block,
            parent_block=ex.parent_block,
            bond=bond,
        )
        return slot

    def _active_exit(self, slot: int) -> Exit:
        ex = self.exits.get(slot)
        if ex is None:
            raise WrongState(f"no active exit for slot {slot}")
        return ex

    def _end_exit(self, slot: int, state: CoinState, winners: List[Address]) -> Exit:
        """The one end of an exit, and the one payout of its bonds: move the
        coin to ``state``, split the exit bond equally among ``winners`` (the
        remainder to the first) and return each pending challenger's bond."""
        self._move(self.coins[slot], state)
        ex = self.exits.pop(slot)
        bond = self.params.bond_amount
        share, remainder = divmod(bond, len(winners))
        for i, winner in enumerate(winners):
            self._pay_bond(winner, share + (remainder if i == 0 else 0))
        for ch in ex.challenges:
            self._pay_bond(ch.challenger, bond)
        return ex

    def _cancel_exit(self, slot: int, beneficiary: Address, kind: str, revealed: IncludedTx):
        """Non-interactive challenge won: the challenger takes the exit bond
        and the coin reopens."""
        witness = revealed.encode(self.config).hex()  # raises before any change
        ex = self._end_exit(slot, CoinState.DEPOSITED, [beneficiary])
        self._emit(kind, slot=slot, challenger=beneficiary.hex, witness=witness)
        self._emit("ExitCancelled", slot=slot, exitor=ex.exitor.hex)

    def challenge_after(self, challenger: Address, slot: int, spend: IncludedTx):
        """Cancel an exit of a spent coin with a direct spend of the exit tx."""
        ex = self._active_exit(slot)
        # only a child of the exit tx counts: deeper descendants assume the
        # validity of their ancestors
        self._check_spend("challenge", slot, spend, ex.exit_tx, self.current_block)
        self._cancel_exit(slot, challenger, "ChallengedAfter", spend)

    def challenge_between(self, challenger: Address, slot: int, spend: IncludedTx):
        """Cancel a double-spend exit with the earlier same-parent spend."""
        ex = self._active_exit(slot)
        if ex.parent_tx is None:
            self._check_included(slot, spend, "challenge")  # BadProof first, as for any spend
            raise Unlinked("deposit-exit has no parent to double-spend")
        self._check_spend("challenge", slot, spend, ex.parent_tx, ex.exit_block - 1)
        self._cancel_exit(slot, challenger, "ChallengedBetween", spend)

    def challenge_before(self, challenger: Address, slot: int, tx: IncludedTx) -> int:
        """Bonded interactive claim that the exit's history is invalid; the
        contract escrows ``params.bond_amount`` from the challenger."""
        ex = self._active_exit(slot)
        self._check_included(slot, tx, "challenge")
        if tx.blk_number >= ex.boundary:
            kind = "parent" if ex.parent_tx is not None else "deposit exit's"
            raise OutOfRange(f"challenge must precede the {kind} block {ex.boundary}")
        bond = self.params.bond_amount
        self._take_bond(challenger, bond)
        challenge_id = self._next_challenge_id
        self._next_challenge_id += 1
        ex.challenges.append(PendingChallenge(challenge_id, challenger, tx))
        self._emit(
            "ChallengedBefore",
            slot=slot,
            challenge_id=challenge_id,
            challenger=challenger.hex,
            challenge_block=tx.blk_number,
            bond=bond,
        )
        return challenge_id

    def respond_challenge_before(
        self, responder: Address, slot: int, challenge_id: int, response: IncludedTx
    ):
        """Dismiss an interactive challenge with a direct spend of its tx."""
        ex = self._active_exit(slot)
        challenge = next((c for c in ex.challenges if c.challenge_id == challenge_id), None)
        if challenge is None:
            raise NoSuchChallenge(f"no unanswered challenge {challenge_id} on slot {slot}")
        self._check_spend("response", slot, response, challenge.tx, ex.exit_block)
        witness = response.encode(self.config).hex()  # raises before any change
        ex.challenges.remove(challenge)
        self._pay_bond(responder, self.params.bond_amount)
        self._emit(
            "ChallengeResponded",
            slot=slot,
            challenge_id=challenge_id,
            responder=responder.hex,
            witness=witness,
        )

    def finalize_exit(self, slot: int) -> str:
        """Settle a matured exit: finalize, or cancel if any interactive
        challenge went unanswered."""
        ex = self._active_exit(slot)
        if self.clock < ex.matures_at:
            raise NotMature(f"exit matures at {ex.matures_at}, now {self.clock}")
        if not ex.challenges:
            self._end_exit(slot, CoinState.EXITED, [ex.exitor])
            self.coins[slot].owner = ex.exitor
            self._emit("ExitFinalized", slot=slot, exitor=ex.exitor.hex)
            return "Finalized"
        # the unanswered challengers win the exit bond
        challengers = [c.challenger for c in ex.challenges]
        self._end_exit(slot, CoinState.DEPOSITED, challengers)
        self._emit(
            "ExitCancelled",
            slot=slot,
            exitor=ex.exitor.hex,
            challengers=[c.hex for c in challengers],
        )
        return "CancelledByChallenge"

    def withdraw(self, caller: Address, slot: int) -> int:
        coin = self._coin_for(slot, CoinState.WITHDRAWN)
        if caller != coin.owner:
            raise WrongCaller("only the coin's owner may withdraw")
        self._move(coin, CoinState.WITHDRAWN)
        self.value_escrow -= coin.denomination
        self._credit(caller, coin.denomination)
        self._emit("Withdrawn", slot=slot, owner=caller.hex, denomination=coin.denomination)
        return coin.denomination
