"""Deterministic simulator of a non-fungible-coin plasma chain: sparse
Merkle commitments, verifiable coin histories, and the on-chain exit and
challenge game that keeps funds safe under a Byzantine block producer."""

from .core import (
    Address,
    IncludedTx,
    Keyring,
    PlasmaBlock,
    Signer,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
)
from .driver import Simulation
from .history import (
    CoinHistory,
    Reason,
    RootView,
    Verdict,
    valid_tip,
    verify_history,
)
from .operator_node import PlasmaOperator, TxReceipt
from .rootchain import ChainParams, CoinRecord, CoinState, Exit, PlasmaContract
from .scenarios import SCENARIOS, ScenarioReport, fuzz, run
from .smt import (
    DEFAULT_LEAF,
    Proof,
    SmtConfig,
    SparseMerkleTree,
    verify,
)
from .wallet import Wallet

__version__ = "0.1.0"
