"""Plasmachain block producer and witness-data service.

One operator instance runs in exactly one mode: honest, or one of three
scripted Byzantine behaviors (including a forged-signature transaction,
including a double spend, or withholding witness data for targeted
slot/block pairs).  Byzantine actions are driven explicitly by scenarios
so attack traces replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple

from .core import Address, IncludedTx, Keyring, PlasmaBlock, Transaction
from .errors import UnknownBlock, WitnessUnavailable, WrongMode
from .smt import SmtConfig


class OperatorMode(Enum):
    HONEST = "Honest"
    INCLUDE_FORGED_TX = "IncludeForgedTx"
    INCLUDE_DOUBLE_SPEND = "IncludeDoubleSpend"
    WITHHOLD_WITNESS = "WithholdWitness"


@dataclass(frozen=True)
class TxReceipt:
    accepted: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.accepted


class PlasmaOperator:
    """Accumulates transactions between block productions and serves
    (non-)inclusion witnesses for every block it has seen."""

    def __init__(
        self,
        address: Address,
        keyring: Keyring,
        config: SmtConfig,
        mode: OperatorMode = OperatorMode.HONEST,
    ):
        self.address = address
        self.keyring = keyring
        self.config = config
        self.mode = mode
        self.blocks: Dict[int, PlasmaBlock] = {}
        # operator's view of current owner and last inclusion block per slot
        self.ownership: Dict[int, Tuple[Address, int]] = {}
        self.pending: Dict[int, Transaction] = {}
        self.withheld: set = set()

    # -- chain observation --

    def observe_deposit(self, block: PlasmaBlock):
        """Record a deposit block appended by the root chain."""
        self.blocks[block.number] = block
        for slot, tx in block.txs.items():
            self.ownership[slot] = (tx.new_owner, block.number)

    # -- transaction intake --

    def submit_tx(self, tx: Transaction) -> TxReceipt:
        if self.mode is OperatorMode.INCLUDE_DOUBLE_SPEND:
            # colluding: skip ownership checks entirely
            if tx.slot in self.pending:
                return TxReceipt(False, "slot already spent this block")
            self.pending[tx.slot] = tx
            return TxReceipt(True)
        return self._submit_checked(tx)

    def _submit_checked(self, tx: Transaction) -> TxReceipt:
        known = self.ownership.get(tx.slot)
        if known is None:
            return TxReceipt(False, "unknown coin")
        owner, last_block = known
        if tx.slot in self.pending:
            # one spend per slot per block; a conflicting re-spend is a
            # double spend, not a queueing problem
            return TxReceipt(False, "slot already spent this block")
        if tx.parent_block != last_block:
            return TxReceipt(False, "parent is not the last inclusion block")
        signer = self.keyring.signer_of(tx)
        if signer is None:
            return TxReceipt(False, "malformed signature")
        if signer != owner:
            return TxReceipt(False, "signer does not own the coin")
        self.pending[tx.slot] = tx
        return TxReceipt(True)

    def inject_raw_tx(self, tx: Transaction):
        """Scripted inclusion of an arbitrary (e.g. forged) transaction."""
        if self.mode is not OperatorMode.INCLUDE_FORGED_TX:
            raise WrongMode("raw inclusion requires the forged-tx mode")
        self.pending[tx.slot] = tx

    # -- block production --

    def produce_block(self, number: int) -> PlasmaBlock:
        """Build the SMT over pending transactions; the returned block's
        root is what gets committed on the root chain as ``number``."""
        block = PlasmaBlock.build(number, self.pending, self.config)
        self.blocks[number] = block
        for slot, tx in block.txs.items():
            self.ownership[slot] = (tx.new_owner, number)
        self.pending = {}
        return block

    # -- witness service --

    def withhold(self, slot: int, block_number: int):
        if self.mode is not OperatorMode.WITHHOLD_WITNESS:
            raise WrongMode("withholding requires the withhold-witness mode")
        self.withheld.add((slot, block_number))

    def get_witness(self, slot: int, block_number: int) -> IncludedTx:
        block = self.blocks.get(block_number)
        if block is None:
            raise UnknownBlock(f"block {block_number} not produced")
        if (slot, block_number) in self.withheld:
            raise WitnessUnavailable(f"witness for slot {slot} at block {block_number} withheld")
        return block.prove(slot)
