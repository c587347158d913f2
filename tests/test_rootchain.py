"""Root-chain contract: deposits, commitments, and the exit game."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flip, proof_from_siblings, siblings_of
from plasma_cash.core import (
    SIG_SIZE,
    IncludedTx,
    Keyring,
    PlasmaBlock,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
)
from plasma_cash.errors import (
    BadDenomination,
    BadProof,
    BadSignature,
    IllegalTransition,
    InsufficientBalance,
    MalformedProof,
    NoSuchChallenge,
    NotMature,
    OutOfRange,
    PlasmaError,
    SlotOutOfRange,
    UnknownCoin,
    Unlinked,
    WrongCaller,
    WrongState,
)
from plasma_cash.history import ACCEPT, CoinHistory, Mark, Reason, Verdict, find_spend, verify_history
from plasma_cash.operator_node import ShadowLedger
from plasma_cash.rootchain import TRANSITIONS, ChainParams, CoinState, PlasmaContract
from plasma_cash.smt import Proof
from plasma_cash.wallet import Wallet

PARAMS = ChainParams(maturity_period=5, bond_amount=100, smt_depth=16)
BOND = PARAMS.bond_amount


class Fixture:
    """Contract plus hand-built operator blocks: deposit, Alice->Bob, Bob->Carol."""

    def __init__(self, params=PARAMS):
        self.keyring = Keyring()
        self.operator = self.keyring.new_signer("operator")
        self.alice = self.keyring.new_signer("alice")
        self.bob = self.keyring.new_signer("bob")
        self.carol = self.keyring.new_signer("carol")
        self.mallory = self.keyring.new_signer("mallory")
        self.contract = PlasmaContract(
            operator=self.operator.address, keyring=self.keyring, params=params
        )
        for s in (self.operator, self.alice, self.bob, self.carol, self.mallory):
            self.contract.balances[s.address] = 10_000
        self.blocks = {}

    def commit(self, txs):
        block = PlasmaBlock.build(
            self.contract.next_operator_block, txs, self.contract.config
        )
        self.contract.submit_block(self.operator.address, block.root)
        self.blocks[block.number] = block
        return block

    def mint(self, signer, denomination):
        """Deposit; the new coin's slot, deposit block and the record's entry."""
        coin = self.contract.deposit(signer.address, denomination)
        return coin.slot, coin.deposit_block, coin.deposit

    def witness(self, slot, number):
        """The coin's entry at ``number``: the contract's record at its
        deposit block, a hand-built operator block's proof at any other."""
        coin = self.contract.coins[slot]
        return coin.deposit if number == coin.deposit_block else self.blocks[number].prove(slot)


@pytest.fixture
def fx():
    f = Fixture()
    f.slot, f.dep_block, _ = f.mint(f.alice, 5)
    f.commit({f.slot: make_transfer_tx(f.alice, f.slot, f.dep_block, f.bob.address)})
    f.commit({})
    f.commit({f.slot: make_transfer_tx(f.bob, f.slot, 1000, f.carol.address)})
    return f


def carol_exit(fx):
    fx.contract.start_exit(
        fx.carol.address, fx.slot, fx.witness(fx.slot, 1000), fx.witness(fx.slot, 3000)
    )


# -- numbering and escrow --


def test_block_numbering_interleaves_deposits():
    f = Fixture()
    assert f.contract.deposit(f.alice.address, 1).deposit_block == 1
    assert f.contract.deposit(f.bob.address, 1).deposit_block == 2
    assert f.commit({}).number == 1000
    assert f.contract.deposit(f.carol.address, 1).deposit_block == 1001
    assert f.commit({}).number == 2000


def test_contract_records_its_operator_blocks():
    """Deposits skip the interval multiples and operator blocks take only
    those; the contract lists every operator block that holds a transaction
    (here a spend of coin 0) and no deposit block, and a history runs from
    the coin's deposit over listed operator blocks only.  A block with no
    transaction is committed but not listed: its root proves every slot empty.
    A history resuming past a block covers the listed operator blocks after it."""
    f = Fixture()
    f.contract.current_block = 997  # the third deposit reaches an interval multiple
    numbers = [f.contract.deposit(f.alice.address, 1).deposit_block for _ in range(3)]
    spend = {0: make_transfer_tx(f.alice, 0, 998, f.bob.address)}
    assert numbers == [998, 999, 1001] and f.commit(spend).number == 2000
    numbers = [f.contract.deposit(f.bob.address, 1).deposit_block for _ in range(2)]
    spend = {0: make_transfer_tx(f.bob, 0, 2000, f.carol.address)}
    assert numbers == [2001, 2002] and f.commit(spend).number == 3000
    view = f.contract.view
    assert f.contract.operator_blocks == view.operator_blocks == [2000, 3000]
    assert view.history_blocks(998) == [2000, 3000]
    assert view.history_blocks(2000) == view.history_blocks(2002) == [3000]
    empty = f.commit({})
    assert empty.number == 4000 and view.roots[4000] == empty.root == f.contract.config.defaults[16]
    assert view.operator_blocks == [2000, 3000] and view.history_blocks(3000) == []
    assert not view.is_operator_block(4000)


def test_deposit_moves_value_to_escrow():
    f = Fixture()
    total = f.contract.total_value()
    f.contract.deposit(f.alice.address, 7)
    assert f.contract.balance_of(f.alice.address) == 10_000 - 7
    assert f.contract.value_escrow == 7
    assert f.contract.total_value() == total


def test_deposit_rejects_bad_amounts():
    """A denomination of zero or below raises BadDenomination, one past the
    depositor's balance InsufficientBalance; neither moves a balance or the
    escrow, mints a coin or takes a block number."""
    f = Fixture()
    before = (contract_state(f.contract), f.contract.current_block)
    for amount, error in ((0, BadDenomination), (-3, BadDenomination), (10_001, InsufficientBalance)):
        with pytest.raises(error):
            f.contract.deposit(f.alice.address, amount)
        assert (contract_state(f.contract), f.contract.current_block) == before


def test_deposit_refuses_a_denomination_that_is_not_an_integer():
    """A float, even a whole one, a bool or a string is refused with
    BadDenomination before any balance, escrow, coin or block number moves."""
    f = Fixture()
    before = (contract_state(f.contract), f.contract.current_block)
    for amount in (2.5, 3.0, True, "5"):
        with pytest.raises(BadDenomination):
            f.contract.deposit(f.alice.address, amount)
        assert (contract_state(f.contract), f.contract.current_block) == before
    assert f.contract.balance_of(f.alice.address) == 10_000 and not f.contract.coins


def test_deposit_past_capacity_changes_nothing():
    """A depth-2 tree holds four coins; a fifth deposit is refused before
    any value moves or any block or slot number is taken."""
    f = Fixture(ChainParams(smt_depth=2))
    for _ in range(4):
        f.contract.deposit(f.alice.address, 1)

    def state():
        c = f.contract
        return c.balance_of(f.alice.address), c.value_escrow, c.current_block, len(c.coins)

    before = state()
    with pytest.raises(SlotOutOfRange):
        f.contract.deposit(f.alice.address, 7)
    assert state() == before == (10_000 - 4, 4, 4, 4)


def test_only_operator_commits():
    f = Fixture()
    with pytest.raises(WrongCaller):
        f.contract.submit_block(f.alice.address, b"\x00" * 32)


# -- starting exits --

def test_exit_and_withdraw_happy_path(fx):
    total = fx.contract.total_value()
    carol_exit(fx)
    assert fx.contract.coins[fx.slot].state is CoinState.EXITING
    assert fx.contract.bond_escrow == BOND
    fx.contract.advance_time(PARAMS.maturity_period)
    assert fx.contract.finalize_exit(fx.slot) == "Finalized"
    assert fx.contract.bond_escrow == 0
    assert fx.contract.withdraw(fx.carol.address, fx.slot) == 5
    assert fx.contract.coins[fx.slot].state is CoinState.WITHDRAWN
    assert fx.contract.total_value() == total
    assert fx.contract.balance_of(fx.carol.address) == 10_005


def test_deposit_exit(fx):
    f = Fixture()
    slot, _, dep = f.mint(f.alice, 3)
    f.contract.start_exit(f.alice.address, slot, None, dep)
    f.contract.advance_time(PARAMS.maturity_period)
    assert f.contract.finalize_exit(slot) == "Finalized"
    assert f.contract.withdraw(f.alice.address, slot) == 3


def test_start_exit_error_paths(fx):
    w1000, w3000 = fx.witness(fx.slot, 1000), fx.witness(fx.slot, 3000)
    with pytest.raises(UnknownCoin):
        fx.contract.start_exit(fx.carol.address, 99, w1000, w3000)
    with pytest.raises(WrongCaller):
        fx.contract.start_exit(fx.mallory.address, fx.slot, w1000, w3000)
    with pytest.raises(BadProof):  # exclusion entry in place of the exit tx
        fx.contract.start_exit(fx.carol.address, fx.slot, w1000, fx.witness(fx.slot, 2000))
    with pytest.raises(Unlinked):  # parent witness from the wrong block
        fx.contract.start_exit(fx.carol.address, fx.slot, fx.witness(fx.slot, fx.dep_block), w3000)
    with pytest.raises(BadSignature):
        # exit tx re-signed by a non-owner
        forged = make_transfer_tx(fx.mallory, fx.slot, 1000, fx.carol.address)
        block = fx.commit({fx.slot: forged})
        fx.contract.start_exit(fx.carol.address, fx.slot, w1000, block.prove(fx.slot))
    with pytest.raises(BadProof):  # non-deposit entry on the deposit-exit path
        fx.contract.start_exit(fx.carol.address, fx.slot, None, w3000)

    carol_exit(fx)
    with pytest.raises(WrongState):  # already exiting
        carol_exit(fx)


# -- challengeAfter --


def test_challenge_after_cancels_spent_coin_exit(fx):
    # Carol spends on to Mallory, then exits the stale tx anyway
    spend = fx.commit(
        {fx.slot: make_transfer_tx(fx.carol, fx.slot, 3000, fx.mallory.address)}
    ).prove(fx.slot)
    carol_exit(fx)
    fx.contract.challenge_after(fx.mallory.address, fx.slot, spend)
    assert fx.slot not in fx.contract.exits
    assert fx.contract.coins[fx.slot].state is CoinState.DEPOSITED
    assert fx.contract.balance_of(fx.mallory.address) == 10_000 + BOND
    assert fx.contract.balance_of(fx.carol.address) == 10_000 - BOND


def test_challenge_after_requires_direct_spend(fx):
    carol_exit(fx)
    with pytest.raises(Unlinked):  # parent is 1000, not the exit block
        fx.contract.challenge_after(fx.bob.address, fx.slot, fx.witness(fx.slot, 3000))
    with pytest.raises(BadSignature):  # direct spend but not signed by the exitor
        forged = make_transfer_tx(fx.mallory, fx.slot, 3000, fx.mallory.address)
        spend = fx.commit({fx.slot: forged}).prove(fx.slot)
        fx.contract.challenge_after(fx.mallory.address, fx.slot, spend)
    with pytest.raises(WrongState):
        fx.contract.challenge_after(fx.bob.address, 99, fx.witness(fx.slot, 3000))


# -- challengeBetween --


def test_challenge_between_cancels_double_spend_exit(fx):
    # Bob spends the same 1000 parent again and exits the later copy
    double = make_transfer_tx(fx.bob, fx.slot, 1000, fx.mallory.address)
    blk = fx.commit({fx.slot: double})
    fx.contract.start_exit(
        fx.mallory.address, fx.slot, fx.witness(fx.slot, 1000), blk.prove(fx.slot)
    )
    fx.contract.challenge_between(fx.carol.address, fx.slot, fx.witness(fx.slot, 3000))
    assert fx.slot not in fx.contract.exits
    assert fx.contract.balance_of(fx.carol.address) == 10_000 + BOND


def test_challenge_between_window_enforced(fx):
    carol_exit(fx)
    with pytest.raises(Unlinked):  # deposit spend has parent 1, not 1000
        fx.contract.challenge_between(fx.bob.address, fx.slot, fx.witness(fx.slot, 1000))
    late = fx.commit({fx.slot: make_transfer_tx(fx.bob, fx.slot, 1000, fx.mallory.address)})
    with pytest.raises(OutOfRange):  # same parent but after the exit block
        fx.contract.challenge_between(fx.bob.address, fx.slot, late.prove(fx.slot))


def contract_state(contract):
    """Everything a move may change; ``repr`` reaches into each exit, so a
    challenge added or removed shows too."""
    return (dict(contract.balances), contract.value_escrow, contract.bond_escrow,
            repr(contract.exits), [c.state for c in contract.coins.values()],
            len(contract.events))


def test_signed_deposit_tx_does_not_exit():
    """A deposit tx carrying a signature hashes to the deposit root, since
    the hash leaves the signature out; the contract still refuses it and
    nothing changes."""
    f = Fixture()
    slot, dep_block, genuine = f.mint(f.alice, 3)
    signed_tx = Transaction(slot, 0, f.alice.address, Keyring.sign(f.alice, genuine.tx.hash()))
    assert signed_tx.hash() == f.contract.roots[dep_block]
    before = contract_state(f.contract)
    with pytest.raises(BadProof):
        f.contract.start_exit(
            f.alice.address, slot, None, IncludedTx(signed_tx, dep_block, genuine.proof)
        )
    assert contract_state(f.contract) == before
    assert f.contract.coins[slot].state is CoinState.DEPOSITED


def test_entries_outside_the_coins_blocks_are_refused(fx):
    """A move takes an entry only at the coin's deposit block or at an
    operator block: the coin's deposit tx filed under another coin's
    deposit block, or under an uncommitted number, is refused; at its own
    deposit block it is taken."""
    other_block = fx.contract.deposit(fx.bob.address, 3).deposit_block
    carol_exit(fx)
    genuine = fx.witness(fx.slot, fx.dep_block)
    for number in (other_block, 999):
        moved = IncludedTx(genuine.tx, number, genuine.proof)
        with pytest.raises(BadProof, match="neither an operator block nor the coin's deposit entry"):
            fx.contract.challenge_before(fx.alice.address, fx.slot, moved)
    assert fx.contract.exits[fx.slot].challenges == []
    fx.contract.challenge_before(fx.alice.address, fx.slot, genuine)
    assert len(fx.contract.exits[fx.slot].challenges) == 1


def test_deposit_tx_at_an_operator_block_is_no_exit_parent():
    """A Byzantine operator includes the coin's deposit tx at 2000, after
    Alice paid Bob at 1000, then Alice's spend of it to Carol at 3000.  No
    spend names block 0, so the entry at 2000 is no parent: the exit is
    refused and nothing changes."""
    f = Fixture()
    slot, dep_block, _ = f.mint(f.alice, 5)
    f.commit({slot: make_transfer_tx(f.alice, slot, dep_block, f.bob.address)})
    f.commit({slot: make_deposit_tx(slot, f.alice.address)})
    f.commit({slot: make_transfer_tx(f.alice, slot, 2000, f.carol.address)})
    before = contract_state(f.contract)
    with pytest.raises(BadProof, match="deposit transaction at operator block 2000"):
        f.contract.start_exit(f.carol.address, slot, f.witness(slot, 2000), f.witness(slot, 3000))
    assert contract_state(f.contract) == before
    assert f.contract.coins[slot].state is CoinState.DEPOSITED


def test_an_exit_proof_carrying_a_neighbor_is_refused(fx):
    """The contract takes inclusions only, and ``smt.verify`` refuses a
    neighbour on an inclusion: an exit whose exit or parent proof names
    one, the coin's own slot or another coin of a shared block, raises
    BadProof and changes nothing; the same exit without it starts."""
    other = fx.slot + 1
    shared = fx.commit({
        fx.slot: make_transfer_tx(fx.carol, fx.slot, 3000, fx.alice.address),
        other: make_transfer_tx(fx.carol, other, 3000, fx.bob.address),
    })
    parent, exit_tx = fx.witness(fx.slot, 3000), fx.witness(fx.slot, shared.number)
    before = contract_state(fx.contract)
    for neighbor in ((other, shared.txs[other].hash()), (fx.slot, exit_tx.tx.hash())):
        for carrier in ("parent", "exit"):
            p, e = parent, exit_tx
            if carrier == "parent":
                p = IncludedTx(p.tx, p.blk_number, replace(p.proof, neighbor=neighbor))
            else:
                e = IncludedTx(e.tx, e.blk_number, replace(e.proof, neighbor=neighbor))
            with pytest.raises(BadProof, match=f"{carrier} inclusion proof invalid"):
                fx.contract.start_exit(fx.alice.address, fx.slot, p, e)
            assert contract_state(fx.contract) == before
            assert fx.contract.coins[fx.slot].state is CoinState.DEPOSITED
    fx.contract.start_exit(fx.alice.address, fx.slot, parent, exit_tx)
    assert fx.slot in fx.contract.exits


def deposit_mutant(data, f, slot, genuine):
    """The genuine deposit entry, or one with one field changed."""
    kind = data.draw(st.sampled_from(
        ["genuine", "owner", "slot", "parent_block", "signature", "sibling", "blk_number"]
    ), label="kind")
    tx, number, proof = genuine.tx, genuine.blk_number, genuine.proof
    if kind == "owner":
        tx = Transaction(slot, 0, data.draw(st.sampled_from([f.bob, f.mallory])).address)
    elif kind == "slot":
        tx = Transaction(data.draw(st.integers(0, 99).filter(lambda s: s != slot)), 0, tx.new_owner)
    elif kind == "parent_block":
        tx = Transaction(slot, data.draw(st.integers(1, 2**63)), tx.new_owner)
    elif kind == "signature":
        tx = Transaction(slot, 0, tx.new_owner, data.draw(st.binary(min_size=SIG_SIZE, max_size=SIG_SIZE)))
    elif kind == "sibling":
        sibs = siblings_of(proof, f.contract.config.depth)
        sibs[data.draw(st.integers(0, len(sibs) - 1))] = data.draw(st.binary(min_size=32, max_size=32))
        proof = proof_from_siblings(sibs)
    elif kind == "blk_number":
        number = data.draw(st.sampled_from([1, 1000, 1002]))
    return kind, IncludedTx(tx, number, proof)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_only_the_recorded_deposit_entry_is_taken(data):
    """Mutate one field of a deposit entry.  The contract compares an entry
    at a deposit block with the coin's record: ``start_exit`` refuses the
    mutant, whether it is the exit tx of a deposit exit or the parent of a
    spend, and changes nothing; it takes the genuine entry.  A receiver
    audits from the record, so a history handed with a deposit entry,
    genuine or not, is a partition gap that leaves its log and mark as
    they were; handed without one, the spend is accepted."""
    f = Fixture()
    f.contract.deposit(f.bob.address, 1)  # block 1: another coin's deposit
    f.commit({})  # 1000
    slot, dep_block, record = f.mint(f.alice, 5)  # 1001
    f.contract.deposit(f.carol.address, 1)  # 1002
    spend = f.commit({slot: make_transfer_tx(f.alice, slot, dep_block, f.bob.address)}).prove(slot)
    assert record == IncludedTx(
        make_deposit_tx(slot, f.alice.address), dep_block, f.contract.config.empty_proof
    )
    kind, entry = deposit_mutant(data, f, slot, record)
    fault = f.contract.view.inclusion_fault(entry, slot, record)
    assert (fault is None) == (kind == "genuine"), (kind, fault)

    bob = Wallet(f.bob, f.contract)
    verdict = bob.receive_coin(CoinHistory(slot, dep_block, {entry.blk_number: entry, 2000: spend}))
    assert verdict == Verdict(False, Reason.PARTITION_GAP, f"missing=[] extra=[{entry.blk_number}]")
    assert (bob.coins, bob.logs, bob.marks) == ({}, {}, {})
    assert bob.receive_coin(CoinHistory(slot, dep_block, {2000: spend})) == ACCEPT

    use = data.draw(st.sampled_from(["deposit exit", "parent"]), label="use")
    if use == "deposit exit":
        exitor, args = entry.tx.new_owner, (None, entry)
    else:
        exitor, args = f.bob.address, (entry, spend)
    before = contract_state(f.contract)
    if kind == "genuine":
        f.contract.start_exit(exitor, slot, *args)
        assert f.contract.coins[slot].state is CoinState.EXITING
        return
    with pytest.raises(PlasmaError):
        f.contract.start_exit(exitor, slot, *args)
    assert contract_state(f.contract) == before


# -- one spend check for the four moves that take a spend --

SPEND_MOVES = ["start_exit", "challenge_after", "challenge_between", "respond_challenge_before"]
# each fault, and the error every move raises for it: the first of the
# checks in order, inclusion, parent link, range, signer, when a spend has
# two faults; a proof that sends a default is refused before any move, when
# it is built
SPEND_FAULTS = {
    "wrong slot": BadProof,
    "bad proof": BadProof,
    "wrong parent": Unlinked,
    "out of range": OutOfRange,
    "wrong signer": BadSignature,
    "malformed signature": BadSignature,
    "bad proof, wrong parent": BadProof,
    "wrong parent, out of range": Unlinked,
    "out of range, wrong signer": OutOfRange,
    "sent default": MalformedProof,
}


def spend_move(move, fault):
    """Alice deposits, pays Bob at 2000, and Bob pays Carol at 3000; ``move``
    is set up to take Bob's spend, and ``fault`` changes it.  A spend out of
    range is included at 1000, before the block it spends.  A spend whose
    proof will send a default is committed beside an entry of the next slot,
    so its proof has a sent sibling below the default.

    - start_exit: Carol exits the spend with the 2000 parent.
    - challenge_after: Bob exits at 2000, so the spend spends his exit.
    - challenge_between: Bob double spends 2000 to Mallory at 4000, and
      Mallory exits that.
    - respond_challenge_before: Mallory forges a spend of 2000 at 4000 and
      exits a spend of it at 5000; Alice challenges with the 2000 spend,
      which Bob's spend answers.

    Returns the fixture, the slot and a call of the move on a spend."""
    f = Fixture()
    slot, dep_block, dep = f.mint(f.alice, 5)
    signer = f.mallory if "signer" in fault else f.bob
    tx = make_transfer_tx(signer, slot, dep_block if "parent" in fault else 2000, f.carol.address)
    if fault == "malformed signature":
        tx = Transaction(slot, 2000, f.carol.address, b"\x00" * 5)
    early = "out of range" in fault
    f.commit({slot: tx} if early else {})
    f.commit({slot: make_transfer_tx(f.alice, slot, dep_block, f.bob.address)})
    beside = {slot ^ 1: make_transfer_tx(f.mallory, slot ^ 1, 2000, f.carol.address)}
    f.commit({} if early else {slot: tx, **(beside if fault == "sent default" else {})})
    c = f.contract
    if move == "challenge_after":
        c.start_exit(f.bob.address, slot, dep, f.witness(slot, 2000))
    elif move == "challenge_between":
        f.commit({slot: make_transfer_tx(f.bob, slot, 2000, f.mallory.address)})
        c.start_exit(f.mallory.address, slot, f.witness(slot, 2000), f.witness(slot, 4000))
    elif move == "respond_challenge_before":
        f.commit({slot: make_transfer_tx(f.mallory, slot, 2000, f.mallory.address)})
        f.commit({slot: make_transfer_tx(f.mallory, slot, 4000, f.mallory.address)})
        c.start_exit(f.mallory.address, slot, f.witness(slot, 4000), f.witness(slot, 5000))
        cid = c.challenge_before(f.alice.address, slot, f.witness(slot, 2000))

    def call(spend):
        if move == "start_exit":
            return c.start_exit(f.carol.address, slot, f.witness(slot, 2000), spend)
        if move == "respond_challenge_before":
            return c.respond_challenge_before(f.carol.address, slot, cid, spend)
        return getattr(c, move)(f.carol.address, slot, spend)

    return f, slot, call


@pytest.mark.parametrize("fault", ["genuine", *SPEND_FAULTS])
@pytest.mark.parametrize("move", SPEND_MOVES)
def test_every_move_checks_a_spend_in_one_order(move, fault):
    """One spend per fault for each of the four moves that take a spend:
    every move raises the error of the rule that comes first in the one
    order, and a refusal changes nothing; the genuine spend is taken.
    A spend whose proof sends a default never reaches the move: its proof
    cannot be built."""
    f, slot, call = spend_move(move, fault)

    def spend():
        spend = f.witness(slot, 1000 if "out of range" in fault else 3000)
        if fault == "wrong slot":
            other = make_transfer_tx(f.bob, slot + 1, 2000, f.carol.address)
            spend = IncludedTx(other, spend.blk_number, spend.proof)
        if "bad proof" in fault:
            spend = IncludedTx(spend.tx, spend.blk_number, flip(spend.proof))
        if fault == "sent default":
            # the fold would be the genuine one, but no proof sends a default
            proof = spend.proof
            sent = Proof(proof.bitfield | 4, proof.present + (f.contract.config.defaults[2],))
            spend = IncludedTx(spend.tx, spend.blk_number, sent)
        return spend

    before = contract_state(f.contract)
    if fault == "genuine":
        call(spend())
        assert contract_state(f.contract) != before
        return
    with pytest.raises(PlasmaError) as err:
        call(spend())
    assert type(err.value) is SPEND_FAULTS[fault], str(err.value)
    assert contract_state(f.contract) == before


@pytest.mark.parametrize("move", SPEND_MOVES)
def test_no_move_takes_a_spend_at_an_empty_block(move):
    """Block 1000 of ``spend_move`` holds no transaction, so its root is the
    empty-tree root and the contract does not list it.  Bob's genuine spend
    filed there, with its own proof or with the empty proof, is refused
    with BadProof by every move that takes a spend, and nothing changes."""
    f, slot, call = spend_move(move, "genuine")
    assert f.contract.roots[1000] == f.contract.config.defaults[16]
    assert 1000 not in f.contract.operator_blocks
    genuine = f.witness(slot, 3000)
    for proof in (genuine.proof, f.contract.config.empty_proof):
        before = contract_state(f.contract)
        with pytest.raises(BadProof, match="block 1000: neither an operator block nor the coin's deposit"):
            call(IncludedTx(genuine.tx, 1000, proof))
        assert contract_state(f.contract) == before
    call(genuine)


def test_no_exit_parent_or_challenge_at_an_empty_block(fx):
    """Block 2000 of ``fx`` holds no transaction.  An exit whose parent is
    filed there, and a bonded challenge filed there, are refused with
    BadProof, with a genuine entry's proof or with the empty proof."""
    empty_proof = fx.contract.config.empty_proof
    parent, deposit = fx.witness(fx.slot, 1000), fx.witness(fx.slot, fx.dep_block)
    before = contract_state(fx.contract)
    for proof in (parent.proof, empty_proof):
        with pytest.raises(BadProof, match="parent block 2000: neither an operator block nor the coin's deposit"):
            fx.contract.start_exit(
                fx.carol.address, fx.slot, IncludedTx(parent.tx, 2000, proof),
                fx.witness(fx.slot, 3000),
            )
    assert contract_state(fx.contract) == before
    carol_exit(fx)
    for tx in (deposit.tx, parent.tx):
        with pytest.raises(BadProof, match="challenge block 2000: neither an operator block nor the coin's deposit"):
            fx.contract.challenge_before(
                fx.alice.address, fx.slot, IncludedTx(tx, 2000, empty_proof)
            )
    assert fx.contract.exits[fx.slot].challenges == []


def test_no_history_covers_an_empty_block(fx):
    """Carol's history past the deposit mark covers 1000 and 3000, not the
    empty block 2000.  An entry at 2000, exclusion or inclusion, is a
    partition gap; an inclusion filed under 3000 that names 2000 is a bad
    inclusion, and the contract's rule refuses it too."""
    c, slot = fx.contract, fx.slot
    incl = {n: fx.witness(slot, n) for n in (1000, 3000)}
    mark = Mark(fx.dep_block, c.coins[slot].deposit)

    def audit(incl, excl=None):
        history = CoinHistory(slot, fx.dep_block, incl, excl or {})
        return verify_history(history, c.view, mark)

    assert audit(incl) == ACCEPT
    assert c.view.history_blocks(fx.dep_block) == [1000, 3000]
    moved = IncludedTx(incl[3000].tx, 2000, incl[3000].proof)
    for entries in ((incl, {2000: fx.witness(slot, 2000)}), ({**incl, 2000: moved},)):
        verdict = audit(*entries)
        assert verdict.reason is Reason.PARTITION_GAP and "extra=[2000]" in verdict.detail
    verdict = audit({**incl, 3000: moved})
    assert verdict.reason is Reason.BAD_INCLUSION_PROOF
    fault = c.view.inclusion_fault(moved, slot, c.coins[slot].deposit)
    assert fault == "block 2000: neither an operator block nor the coin's deposit entry"


def spend_mutant(data, f, slot):
    """Bob's spend of 2000 to Carol, committed at 3000 beside a spend of coin
    0, with one field changed: the transaction the operator includes, or the
    entry's proof or block; and the reasons the verifier may give for it."""
    kind = data.draw(st.sampled_from(
        ["genuine", "parent_block", "signer", "signature", "sibling", "blk_number"]
    ), label="kind")
    tx = make_transfer_tx(f.bob, slot, 2000, f.carol.address)
    reasons = {Reason.BAD_SIGNATURE}
    if kind == "parent_block":
        parent = data.draw(st.integers(0, 2**64 - 1).filter(lambda p: p != 2000))
        tx = make_transfer_tx(f.bob, slot, parent, f.carol.address)
        # a spend naming block 0 is deposit-shaped, which no operator block holds
        reasons = {Reason.BROKEN_PARENT_LINK if parent else Reason.BAD_INCLUSION_PROOF}
    elif kind == "signer":
        signer = data.draw(st.sampled_from([f.alice, f.carol, f.mallory]))
        tx = make_transfer_tx(signer, slot, 2000, f.carol.address)
    elif kind == "signature":
        sig = data.draw(st.binary(max_size=SIG_SIZE + 8).filter(lambda b: b != tx.signature))
        tx = Transaction(slot, 2000, f.carol.address, sig)
    entry = f.commit({0: make_transfer_tx(f.bob, 0, 1, f.alice.address), slot: tx}).prove(slot)
    if kind == "sibling":
        sibs = siblings_of(entry.proof, f.contract.config.depth)
        i = data.draw(st.integers(0, len(sibs) - 1))
        sibs[i] = data.draw(st.binary(min_size=32, max_size=32).filter(lambda b: b != sibs[i]))
        entry = IncludedTx(tx, entry.blk_number, proof_from_siblings(sibs))
        reasons = {Reason.BAD_INCLUSION_PROOF}
    elif kind == "blk_number":
        # another coin's deposit block, or an operator block before this coin's
        entry = IncludedTx(tx, data.draw(st.sampled_from([1, 1000, 1002])), entry.proof)
        reasons = {Reason.PARTITION_GAP}
    return kind, entry, reasons


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_check_agrees_on_spend_entries(data):
    """Mutate one field of a spend entry: ``verify_history`` gives the
    reason for it, and ``start_exit`` refuses it as the exit tx and changes
    nothing; ``ShadowLedger.spend_fault`` refuses a changed transaction and
    ``find_spend`` a changed transaction or block.  All four accept the
    genuine entry.  The ledger reads the transaction alone, and
    ``find_spend`` a wallet's log whose proofs were checked on receipt, so
    neither reads a proof."""
    f = Fixture()
    f.contract.deposit(f.bob.address, 1)  # block 1, slot 0: another coin's deposit
    f.commit({})  # 1000
    slot, dep_block, _ = f.mint(f.alice, 5)  # 1001
    f.contract.deposit(f.carol.address, 1)  # 1002
    parent = f.commit({slot: make_transfer_tx(f.alice, slot, dep_block, f.bob.address)})
    kind, entry, reasons = spend_mutant(data, f, slot)

    entries = {2000: parent.prove(slot), entry.blk_number: entry}
    history = CoinHistory(slot, dep_block, dict(sorted(entries.items())))
    mark = Mark(dep_block, f.contract.coins[slot].deposit)
    verdict = verify_history(history, f.contract.view, mark)
    ledger = ShadowLedger(f.keyring)
    ledger.on_deposit(slot, f.alice.address, dep_block)
    ledger.on_block(parent)
    found = find_spend(history, 2000, f.bob.address, f.keyring)
    before = contract_state(f.contract)
    if kind == "genuine":
        assert verdict == ACCEPT and ledger.spend_fault(entry.tx) is None and found == entry
        f.contract.start_exit(f.carol.address, slot, parent.prove(slot), entry)
        assert f.contract.coins[slot].state is CoinState.EXITING
        return
    assert not verdict and verdict.reason in reasons, (kind, verdict)
    with pytest.raises(PlasmaError):
        f.contract.start_exit(f.carol.address, slot, parent.prove(slot), entry)
    assert contract_state(f.contract) == before
    assert (ledger.spend_fault(entry.tx) is None) == (kind in ("sibling", "blk_number"))
    assert (found is None) == (kind != "sibling")


def test_challenge_between_rejected_on_deposit_exit():
    """A deposit exit has no parent, so no spend is linked to it; a spend
    that is not included is still refused for that first, as on any exit."""
    f = Fixture()
    slot, dep_block, dep = f.mint(f.alice, 3)
    f.contract.start_exit(f.alice.address, slot, None, dep)
    before = contract_state(f.contract)
    with pytest.raises(Unlinked):
        f.contract.challenge_between(f.bob.address, slot, dep)
    forged = IncludedTx(make_deposit_tx(slot, f.bob.address), dep_block, dep.proof)
    with pytest.raises(BadProof):
        f.contract.challenge_between(f.bob.address, slot, forged)
    assert contract_state(f.contract) == before


# -- challengeBefore / respond --


def exit_invalid_history(fx):
    """Mallory forges a chain from nothing and exits it."""
    forged_parent = make_transfer_tx(fx.mallory, fx.slot, 3000, fx.mallory.address)
    p_blk = fx.commit({fx.slot: forged_parent})
    forged_exit = make_transfer_tx(fx.mallory, fx.slot, p_blk.number, fx.mallory.address)
    e_blk = fx.commit({fx.slot: forged_exit})
    fx.contract.start_exit(fx.mallory.address, fx.slot, p_blk.prove(fx.slot), e_blk.prove(fx.slot))


def test_unanswered_challenge_before_cancels_at_finalization(fx):
    exit_invalid_history(fx)
    cid = fx.contract.challenge_before(fx.carol.address, fx.slot, fx.witness(fx.slot, 3000))
    assert fx.contract.bond_escrow == 2 * BOND
    fx.contract.advance_time(PARAMS.maturity_period)
    assert fx.contract.finalize_exit(fx.slot) == "CancelledByChallenge"
    # Carol recovers her own bond and wins Mallory's
    assert fx.contract.balance_of(fx.carol.address) == 10_000 + BOND
    assert fx.contract.balance_of(fx.mallory.address) == 10_000 - BOND
    assert fx.contract.bond_escrow == 0
    assert fx.contract.coins[fx.slot].state is CoinState.DEPOSITED
    assert cid == 0


def test_unanswered_challengers_split_the_exit_bond(fx):
    """Three unanswered challengers share the exit bond, the remainder going
    to the earliest, and each gets its own bond back."""
    exit_invalid_history(fx)
    challengers = [(fx.carol, 3000), (fx.bob, 1000), (fx.alice, fx.dep_block)]
    for signer, block in challengers:
        fx.contract.challenge_before(signer.address, fx.slot, fx.witness(fx.slot, block))
    assert fx.contract.bond_escrow == 4 * BOND
    before = [fx.contract.balance_of(signer.address) for signer, _ in challengers]
    fx.contract.advance_time(PARAMS.maturity_period)
    assert fx.contract.finalize_exit(fx.slot) == "CancelledByChallenge"
    gains = [
        fx.contract.balance_of(signer.address) - b for (signer, _), b in zip(challengers, before)
    ]
    assert BOND == 100 and gains == [134, 133, 133]
    assert fx.contract.bond_escrow == 0


def test_answered_challenge_before_lets_exit_finalize(fx):
    carol_exit(fx)
    # Alice (griefing) challenges with the deposit tx; Bob's spend answers it
    cid = fx.contract.challenge_before(fx.alice.address, fx.slot, fx.witness(fx.slot, fx.dep_block))
    fx.contract.respond_challenge_before(
        fx.carol.address, fx.slot, cid, fx.witness(fx.slot, 1000)
    )
    assert fx.contract.balance_of(fx.carol.address) == 10_000 - BOND + BOND  # won the challenge bond
    fx.contract.advance_time(PARAMS.maturity_period)
    assert fx.contract.finalize_exit(fx.slot) == "Finalized"
    assert fx.contract.balance_of(fx.alice.address) == 9_995 - BOND  # lost the bond, 5 still deposited


def test_an_answered_challenge_is_gone_and_pays_once(fx):
    """A response takes its challenge off the exit and pays its bond once:
    a second response with the same id finds no challenge and changes
    nothing, and after each move escrow holds exactly the exit bond and
    the bonds of the challenges still listed."""
    contract = fx.contract
    carol_exit(fx)

    def listed():
        ex = contract.exits[fx.slot]
        assert contract.bond_escrow == BOND * (1 + len(ex.challenges))
        return [c.challenge_id for c in ex.challenges]

    deposit = fx.witness(fx.slot, fx.dep_block)
    answered = contract.challenge_before(fx.alice.address, fx.slot, deposit)
    pending = contract.challenge_before(fx.bob.address, fx.slot, deposit)
    assert listed() == [answered, pending]
    response = fx.witness(fx.slot, 1000)
    contract.respond_challenge_before(fx.carol.address, fx.slot, answered, response)
    assert listed() == [pending]
    before = contract_state(contract)
    with pytest.raises(NoSuchChallenge):
        contract.respond_challenge_before(fx.carol.address, fx.slot, answered, response)
    assert contract_state(contract) == before and listed() == [pending]
    contract.respond_challenge_before(fx.carol.address, fx.slot, pending, response)
    assert listed() == []
    assert contract.balance_of(fx.carol.address) == 10_000 - BOND + 2 * BOND
    contract.advance_time(PARAMS.maturity_period)
    assert contract.finalize_exit(fx.slot) == "Finalized" and contract.bond_escrow == 0


def test_challenge_before_window_and_bond(fx):
    carol_exit(fx)
    with pytest.raises(OutOfRange):  # boundary is the parent block 1000
        fx.contract.challenge_before(fx.bob.address, fx.slot, fx.witness(fx.slot, 1000))
    # the contract escrows the chain's bond beside the exit's
    fx.contract.challenge_before(fx.bob.address, fx.slot, fx.witness(fx.slot, fx.dep_block))
    assert fx.contract.bond_escrow == 2 * BOND


def test_challenge_before_a_deposit_exit_names_its_exit_block():
    """A deposit exit has no parent block: its own deposit transaction is
    too late to challenge it, and the refusal names the deposit block."""
    f = Fixture()
    slot, dep_block, dep = f.mint(f.alice, 3)
    f.contract.start_exit(f.alice.address, slot, None, dep)
    assert f.contract.exits[slot].boundary == dep_block
    with pytest.raises(OutOfRange) as err:
        f.contract.challenge_before(f.bob.address, slot, dep)
    assert "parent" not in str(err.value) and f"block {dep_block}" in str(err.value)
    assert f.contract.exits[slot].challenges == []


def test_respond_challenge_before_error_paths(fx):
    carol_exit(fx)
    cid = fx.contract.challenge_before(fx.alice.address, fx.slot, fx.witness(fx.slot, fx.dep_block))
    with pytest.raises(NoSuchChallenge):
        fx.contract.respond_challenge_before(
            fx.carol.address, fx.slot, cid + 1, fx.witness(fx.slot, 1000)
        )
    with pytest.raises(Unlinked):  # spends 1000, not the deposit
        fx.contract.respond_challenge_before(
            fx.carol.address, fx.slot, cid, fx.witness(fx.slot, 3000)
        )
    # a signed spend of the challenged tx included before it is no answer
    f = Fixture()
    slot, dep_block, _ = f.mint(f.alice, 5)
    early = f.commit({slot: make_transfer_tx(f.bob, slot, 2000, f.mallory.address)})
    f.commit({slot: make_transfer_tx(f.alice, slot, dep_block, f.bob.address)})
    f.commit({slot: make_transfer_tx(f.bob, slot, 2000, f.carol.address)})
    f.commit({slot: make_transfer_tx(f.carol, slot, 3000, f.mallory.address)})
    f.contract.start_exit(f.mallory.address, slot, f.witness(slot, 3000), f.witness(slot, 4000))
    cid = f.contract.challenge_before(f.alice.address, slot, f.witness(slot, 2000))
    with pytest.raises(OutOfRange):
        f.contract.respond_challenge_before(f.mallory.address, slot, cid, early.prove(slot))


@pytest.mark.parametrize("ending", ["after", "between", "finalize"])
def test_cancelled_exit_refunds_pending_challenge_bonds(fx, ending):
    """An exit with two pending ``before`` challenges ends each way it can
    be cancelled: a won ``after`` or ``between`` challenge, or finalization
    with the challenges unanswered.  Each pending challenger is paid its own
    bond exactly once, the exit bond goes to the winners, and escrow ends
    empty."""
    c = fx.contract
    if ending == "between":
        # Bob spends the 1000 parent again, to Mallory, who exits that copy
        double = fx.commit({fx.slot: make_transfer_tx(fx.bob, fx.slot, 1000, fx.mallory.address)})
        c.start_exit(fx.mallory.address, fx.slot, fx.witness(fx.slot, 1000), double.prove(fx.slot))
    else:
        if ending == "after":
            spend = fx.commit(
                {fx.slot: make_transfer_tx(fx.carol, fx.slot, 3000, fx.mallory.address)}
            ).prove(fx.slot)
        carol_exit(fx)
    pending = (fx.alice, fx.bob)
    for signer in pending:
        c.challenge_before(signer.address, fx.slot, fx.witness(fx.slot, fx.dep_block))
    assert c.bond_escrow == 3 * BOND
    before = {s.address: c.balance_of(s.address) for s in (fx.alice, fx.bob, fx.carol, fx.mallory)}
    if ending == "after":
        c.challenge_after(fx.mallory.address, fx.slot, spend)
        won = {fx.mallory.address: BOND}
    elif ending == "between":
        c.challenge_between(fx.carol.address, fx.slot, fx.witness(fx.slot, 3000))
        won = {fx.carol.address: BOND}
    else:
        c.advance_time(PARAMS.maturity_period)
        assert c.finalize_exit(fx.slot) == "CancelledByChallenge"
        won = {s.address: BOND // 2 for s in pending}
    refunds = {s.address: BOND for s in pending}
    gains = {a: c.balance_of(a) - b for a, b in before.items()}
    assert gains == {a: refunds.get(a, 0) + won.get(a, 0) for a in before}
    assert c.bond_escrow == 0 and fx.slot not in c.exits
    assert c.coins[fx.slot].state is CoinState.DEPOSITED


# -- finalize / withdraw guards --


def test_finalize_requires_maturity(fx):
    carol_exit(fx)
    fx.contract.advance_time(PARAMS.maturity_period - 1)
    with pytest.raises(NotMature):
        fx.contract.finalize_exit(fx.slot)
    fx.contract.advance_time(1)
    assert fx.contract.finalize_exit(fx.slot) == "Finalized"


def test_withdraw_guards(fx):
    with pytest.raises(UnknownCoin):
        fx.contract.withdraw(fx.carol.address, 99)
    with pytest.raises(WrongState):
        fx.contract.withdraw(fx.carol.address, fx.slot)
    carol_exit(fx)
    fx.contract.advance_time(PARAMS.maturity_period)
    fx.contract.finalize_exit(fx.slot)
    with pytest.raises(WrongCaller):
        fx.contract.withdraw(fx.mallory.address, fx.slot)
    fx.contract.withdraw(fx.carol.address, fx.slot)
    with pytest.raises(WrongState):  # no double withdrawal
        fx.contract.withdraw(fx.carol.address, fx.slot)


# the coin lifecycle: an exit starts, is cancelled (reopening the coin) or
# finalizes, and an exited coin is withdrawn
LIFECYCLE = {
    (CoinState.DEPOSITED, CoinState.EXITING),
    (CoinState.EXITING, CoinState.DEPOSITED),
    (CoinState.EXITING, CoinState.EXITED),
    (CoinState.EXITED, CoinState.WITHDRAWN),
}


@pytest.mark.parametrize("to", list(CoinState), ids=lambda s: s.value)
@pytest.mark.parametrize("start", list(CoinState), ids=lambda s: s.value)
def test_a_coin_state_changes_only_along_the_lifecycle(start, to):
    """``_move`` makes each of the four lifecycle moves and refuses the
    other twelve pairs with IllegalTransition, which no handler of
    PlasmaError catches, leaving the state as it was."""
    assert TRANSITIONS == LIFECYCLE
    f = Fixture()
    coin = f.contract.deposit(f.alice.address, 5)
    coin.state = start
    if (start, to) in LIFECYCLE:
        f.contract._move(coin, to)
        assert coin.state is to
        return
    with pytest.raises(IllegalTransition) as raised:
        f.contract._move(coin, to)
    assert not isinstance(raised.value, PlasmaError)
    assert coin.state is start


def test_value_is_conserved_through_a_full_dispute(fx):
    total = fx.contract.total_value()
    exit_invalid_history(fx)
    fx.contract.challenge_before(fx.carol.address, fx.slot, fx.witness(fx.slot, 3000))
    assert fx.contract.total_value() == total
    fx.contract.advance_time(PARAMS.maturity_period)
    fx.contract.finalize_exit(fx.slot)
    assert fx.contract.total_value() == total


def test_history_blocks_past_the_last_operator_block():
    """Nothing past the last listed operator block: an empty list, also past
    a deposit made after it.  A later block with no transaction changes
    nothing."""
    f = Fixture()
    f.contract.current_block = 997  # the third deposit reaches an interval multiple
    assert [f.contract.deposit(f.alice.address, 1).deposit_block for _ in range(3)] == [998, 999, 1001]
    assert f.commit({0: make_transfer_tx(f.alice, 0, 998, f.bob.address)}).number == 2000
    deposit = f.contract.deposit(f.bob.address, 1).deposit_block
    view = f.contract.view
    for _ in range(2):
        assert view.history_blocks(998) == view.history_blocks(1001) == [2000]
        assert view.history_blocks(2000) == view.history_blocks(2005) == []
        assert view.history_blocks(deposit) == []
        assert f.commit({}).number in view.roots and view.operator_blocks == [2000]


@pytest.mark.parametrize(
    "bad, error",
    [
        # a negative bond would pay the exitor to exit and overdraw the escrow
        ({"bond_amount": -50}, ValueError),
        ({"bond_amount": 0}, ValueError),
        ({"maturity_period": -1}, ValueError),
        ({"smt_depth": -1}, ValueError),
        ({"smt_depth": 0}, ValueError),
        ({"smt_depth": 65}, ValueError),
        ({"bond_amount": "100"}, TypeError),
        ({"maturity_period": 2.5}, TypeError),
    ],
)
def test_chain_params_refuse_values_the_contract_cannot_run_with(bad, error):
    with pytest.raises(error):
        ChainParams(**bad)


def test_chain_params_edge_values_are_accepted():
    params = ChainParams(maturity_period=0, bond_amount=1, smt_depth=1)
    assert params.smt_config.depth == 1
    assert ChainParams(smt_depth=64).smt_config.capacity == 1 << 64
