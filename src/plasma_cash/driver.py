"""Glue layer wiring contract, operator, and wallets into one simulated
deployment.  ``Simulation.ledger`` is the operator's ownership ledger: it
replays the raw block data (not the published proofs) and tracks each
coin's true owner; contract outcomes are compared against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core import Address, Keyring, PlasmaBlock, Transaction
from .errors import PlasmaError
from .history import Verdict
from .operator_node import PlasmaOperator, TxReceipt
from .rootchain import ChainParams, PlasmaContract
from .wallet import Wallet


@dataclass
class Simulation:
    """One contract + one operator + named wallets, driven step by step."""

    params: ChainParams = field(default_factory=ChainParams)
    initial_balance: int = 10_000

    def __post_init__(self):
        self.keyring = Keyring()
        self.operator_signer = self.keyring.new_signer("operator")
        self.contract = PlasmaContract(
            operator=self.operator_signer.address,
            keyring=self.keyring,
            params=self.params,
        )
        self.operator = PlasmaOperator(
            address=self.operator_signer.address,
            keyring=self.keyring,
            config=self.params.smt_config,
        )
        self.contract.balances[self.operator_signer.address] = self.initial_balance
        self.wallets: Dict[str, Wallet] = {}
        self.ledger = self.operator.ledger
        self._synced = 0  # history blocks when a watcher pass last synced every log

    # -- actors --

    def actor(self, name: str) -> Wallet:
        if name not in self.wallets:
            signer = self.keyring.new_signer(name)
            self.wallets[name] = Wallet(signer, self.keyring, self.contract)
            self.contract.balances[signer.address] = self.initial_balance
        return self.wallets[name]

    def address(self, name: str) -> Address:
        return self.actor(name).address

    def balances_snapshot(self) -> Dict[str, int]:
        snap = {name: self.contract.balance_of(w.address) for name, w in self.wallets.items()}
        snap["operator"] = self.contract.balance_of(self.operator_signer.address)
        return snap

    # -- chain actions --

    def deposit(self, name: str, denomination: int) -> int:
        wallet = self.actor(name)
        coin = self.contract.deposit(wallet.address, denomination)
        self.ledger.on_deposit(coin.slot, wallet.address, coin.deposit_block)
        wallet.register_deposit(coin.slot)
        return coin.slot

    def commit_block(self) -> PlasmaBlock:
        number = self.contract.next_operator_block
        block = self.operator.produce_block(number)
        self.contract.submit_block(self.operator.address, block.root)
        return block

    def transfer(self, sender: str, slot: int, receiver: str) -> Tuple[Transaction, TxReceipt]:
        tx = self.actor(sender).send_coin(slot, self.actor(receiver).address)
        return tx, self.operator.submit_tx(tx)

    def deliver(self, sender: str, slot: int, receiver: str) -> Verdict:
        """After inclusion: the sender syncs and hands over its entries past
        the receiver's mark, the deposit record's block for a first-time one.
        Both wallets exist: the transfer named them."""
        src, dst = self.wallets[sender], self.wallets[receiver]
        src.sync(slot, self.operator.get_witness)
        log = src.coins.pop(slot)
        # only the mark's block is read here: ``receive_coin`` derives the
        # mark itself, so a first-time receiver's is built once
        mark = dst.marks.get(slot)
        block = self.contract.coins[slot].deposit_block if mark is None else mark.block
        verdict = dst.receive_coin(log.past(block))
        if not verdict.accepted:
            src.coins[slot] = log  # refused: kept, now last (the fuzz draws coins in order)
        return verdict

    def start_exit(self, name: str, slot: int):
        """Exit with the wallet's last valid inclusion and its parent."""
        wallet = self.actor(name)
        exit_tx = wallet.last_inclusion(slot)  # NotOwned unless the wallet holds the coin
        parent = exit_tx.tx.parent_block
        parent_tx = None if parent == 0 else wallet.coins[slot].incl[parent]  # 0: a deposit
        self.contract.start_exit(wallet.address, slot, parent_tx, exit_tx)

    def exit_with(self, name: str, slot: int, parent_block: Optional[int], exit_block: int):
        """Exit with the coin's entries at ``parent_block`` (None for a
        deposit exit) and ``exit_block``, not the wallet's own history (used
        by attackers and scripted runs): the contract's record at the deposit
        block, the operator's witness at any other.  A withheld witness
        raises WitnessUnavailable before any exit starts."""
        coin = self.contract.coins[slot]

        def entry(block: int):
            return coin.deposit if block == coin.deposit_block else self.operator.get_witness(slot, block)

        parent_tx = None if parent_block is None else entry(parent_block)
        exit_tx = entry(exit_block)
        self.contract.start_exit(self.address(name), slot, parent_tx, exit_tx)

    def run_watchers(self):
        """Each wallet syncs its coins (best effort) and challenges any
        fraudulent exits it can prove wrong.  No wallet syncs when no history
        block was committed since the last pass whose syncs all succeeded:
        every log then covers them all, since an accepted history covers
        every one up to the tip, a deposit starts at the tip, and logs only grow."""
        actions = []
        tip = len(self.contract.operator_blocks)
        stale = tip != self._synced
        for wallet in self.wallets.values():
            for slot in list(wallet.coins) if stale else ():
                try:
                    wallet.sync(slot, self.operator.get_witness)
                except PlasmaError:
                    tip = None  # withheld witnesses cannot block watching; the next pass retries
            actions.extend(wallet.watch_and_challenge())
        self._synced = tip
        return actions

    def advance_time(self, dt: int = 1):
        self.contract.advance_time(dt)

    def finalize(self, slot: int) -> str:
        return self.contract.finalize_exit(slot)

    def withdraw(self, name: str, slot: int) -> int:
        wallet = self.actor(name)
        amount = self.contract.withdraw(wallet.address, slot)
        for w in self.wallets.values():
            w.forget(slot)
        return amount

    # -- convenience queries --

    def event_kinds(self) -> List[str]:
        return [e.kind for e in self.contract.events]

    def event_trace(self) -> List[dict]:
        return [{"kind": e.kind, **e.data} for e in self.contract.events]
