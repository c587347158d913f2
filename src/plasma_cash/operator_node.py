"""Plasmachain block producer, witness-data service and ownership ledger.

Every operator checks the transactions it is sent against one ledger of
who owns each coin, replayed from the raw blocks it produces; that ledger
is also the ground truth scenarios assert against.  Any operator may also
act Byzantine, at any time and in any combination: include any
transaction unchecked (a forgery, a double spend) and withhold witness
data for chosen slot/block pairs.  Scenarios drive these moves explicitly
so attack traces replay deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .core import Address, IncludedTx, Keyring, PlasmaBlock, Transaction, spend_fault
from .errors import UnknownBlock, WitnessUnavailable
from .smt import SmtConfig


@dataclass(frozen=True)
class TxReceipt:
    accepted: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.accepted


ACCEPTED = TxReceipt(True)


class ShadowLedger:
    """True ownership per slot, replayed from raw block data."""

    def __init__(self, keyring: Keyring):
        self.keyring = keyring
        # slot -> (owner, last inclusion block)
        self.owners: Dict[int, Tuple[Address, int]] = {}
        # slot -> (spend, the ``owners`` entry intake found it valid against)
        self.checked: Dict[int, Tuple[Transaction, Tuple[Address, int]]] = {}

    def on_deposit(self, slot: int, owner: Address, block_number: int):
        self.owners[slot] = (owner, block_number)

    def spend_fault(self, tx: Transaction) -> Optional[str]:
        """Why ``tx`` is not a valid spend of its coin's last output, or None."""
        known = self.owners.get(tx.slot)
        if known is None:
            return "unknown coin"
        owner, last_block = known
        return spend_fault(tx, last_block, owner, self.keyring)

    def on_block(self, block: PlasmaBlock):
        for slot, tx in block.txs.items():
            # intake's check holds for its very spend while that entry stands;
            # a double spend or forgery has no effect on truth
            accepted, entry = self.checked.pop(slot, (None, None))
            if (accepted is tx and entry is self.owners[slot]) or self.spend_fault(tx) is None:
                self.owners[slot] = (tx.new_owner, block.number)

    def true_owner(self, slot: int) -> Address:
        return self.owners[slot][0]


class PlasmaOperator:
    """Accumulates transactions between block productions and serves
    (non-)inclusion witnesses for every block it produced.  Deposit blocks
    are the contract's: their entries are on its coin records."""

    def __init__(self, address: Address, keyring: Keyring, config: SmtConfig):
        self.address = address
        self.config = config
        self.blocks: Dict[int, PlasmaBlock] = {}
        self.ledger = ShadowLedger(keyring)
        self.pending: Dict[int, Transaction] = {}
        self.withheld: set = set()

    # -- transaction intake --

    def submit_tx(self, tx: Transaction) -> TxReceipt:
        """Honest intake: only a valid spend of the coin's last output."""
        fault = self.ledger.spend_fault(tx)
        receipt = TxReceipt(False, fault) if fault else self.inject_raw_tx(tx)
        if receipt.accepted:
            self.ledger.checked[tx.slot] = (tx, self.ledger.owners[tx.slot])
        return receipt

    def inject_raw_tx(self, tx: Transaction) -> TxReceipt:
        """Include any transaction, such as a forgery or a double spend, of
        a slot the tree has."""
        if not 0 <= tx.slot < self.config.capacity:
            return TxReceipt(False, "slot out of range")
        if tx.slot in self.pending:
            # one spend per slot per block; a conflicting re-spend is a
            # double spend, not a queueing problem
            return TxReceipt(False, "slot already spent this block")
        self.pending[tx.slot] = tx
        return ACCEPTED

    # -- block production --

    def produce_block(self, number: int) -> PlasmaBlock:
        """Build the SMT over pending transactions; the returned block's
        root is what gets committed on the root chain as ``number``."""
        block = PlasmaBlock.build(number, self.pending, self.config)
        self.blocks[number] = block
        self.ledger.on_block(block)
        self.pending = {}
        return block

    # -- witness service --

    def withhold(self, slot: int, block_number: int):
        self.withheld.add((slot, block_number))

    def get_witness(self, slot: int, block_number: int) -> IncludedTx:
        block = self.blocks.get(block_number)
        if block is None:
            raise UnknownBlock(f"block {block_number} not produced")
        if (slot, block_number) in self.withheld:
            raise WitnessUnavailable(f"witness for slot {slot} at block {block_number} withheld")
        return block.prove(slot)
