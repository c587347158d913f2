"""Scripted end-to-end scenarios and the randomized fuzz harness.

S1  happy path: deposit, two transfers, exit, finalize, withdraw.
S2  exit of a spent coin, cancelled by a direct-spend challenge.
S3  double-spend exit, cancelled by a same-parent challenge in between.
S4  invalid-history exit, killed at finalization by a bonded challenge.
S5  witness withholding: a protective exit loses exactly one bond while
    forcing the operator to reveal the withheld witness.

Each scenario runs deterministically and checks its expected outcome
(final owner, bond flows, event trace) against a ground-truth ledger.
With ``watcher=False`` the defending challenge is skipped and S2-S5 assert
that the attack then succeeds, showing the challenges are load-bearing.
"""

from __future__ import annotations

import json
import random
from itertools import count
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from . import smt
from .core import IncludedTx, Transaction, make_transfer_tx
from .errors import (
    BadSignature,
    PlasmaError,
    UnknownScenario,
    WitnessUnavailable,
)
from .history import build_history, verify_history
from .operator_node import OperatorMode
from .driver import Simulation
from .rootchain import ChainParams, CoinState


@dataclass
class ScenarioReport:
    name: str
    passed: bool
    failures: List[str] = field(default_factory=list)
    event_trace: List[dict] = field(default_factory=list)
    bond_ledger: Dict[str, int] = field(default_factory=dict)
    elapsed_steps: int = 0
    extras: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "passed": self.passed,
                "failures": self.failures,
                "event_trace": self.event_trace,
                "bond_ledger": self.bond_ledger,
                "elapsed_steps": self.elapsed_steps,
                "extras": self.extras,
            },
            indent=2,
            sort_keys=True,
        )


class _Checks:
    def __init__(self):
        self.failures: List[str] = []

    def expect(self, cond: bool, message: str):
        if not cond:
            self.failures.append(message)

    def expect_raises(self, exc_type, op, message: str):
        try:
            op()
        except exc_type:
            return
        except Exception as exc:  # wrong error is also a failure
            self.failures.append(f"{message} (got {type(exc).__name__})")
            return
        self.failures.append(f"{message} (no error raised)")


def _finish(name: str, sim: Simulation, checks: _Checks, before: Dict[str, int], extras=None) -> ScenarioReport:
    after = sim.balances_snapshot()
    ledger = {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
    return ScenarioReport(
        name=name,
        passed=not checks.failures,
        failures=checks.failures,
        event_trace=sim.event_trace(),
        bond_ledger=ledger,
        elapsed_steps=len(sim.contract.events),
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# S1: deposit -> two transfers (with a gap block) -> exit -> withdraw
# ---------------------------------------------------------------------------

def scenario_s1(seed: int, params: ChainParams, watcher: bool = True) -> ScenarioReport:
    sim = Simulation(params=params)
    checks = _Checks()
    for name in ("alice", "bob", "charlie"):
        sim.actor(name)
    before = sim.balances_snapshot()
    denom = 5

    slot = sim.deposit("alice", denom)
    _, receipt = sim.transfer("alice", slot, "bob")
    checks.expect(receipt.accepted, "honest transfer must be accepted")
    sim.commit_block()
    checks.expect(bool(sim.deliver("alice", slot, "bob")), "Bob must accept the history")

    sim.commit_block()  # a block in which the coin does not move

    _, receipt = sim.transfer("bob", slot, "charlie")
    checks.expect(receipt.accepted, "second transfer must be accepted")
    sim.commit_block()
    checks.expect(bool(sim.deliver("bob", slot, "charlie")), "Charlie must accept the history")

    sim.start_exit("charlie", slot)
    sim.run_watchers()
    sim.advance_time(params.maturity_period)
    checks.expect(sim.finalize(slot) == "Finalized", "unchallenged exit must finalize")
    checks.expect(sim.withdraw("charlie", slot) == denom, "withdrawal must pay the denomination")

    checks.expect(
        sim.contract.coins[slot].state is CoinState.WITHDRAWN, "coin must end WITHDRAWN"
    )
    checks.expect(
        sim.ledger.true_owner(slot) == sim.address("charlie"),
        "ground truth must agree Charlie owns the coin",
    )
    after = sim.balances_snapshot()
    checks.expect(
        after["charlie"] - before["charlie"] == denom,
        "Charlie nets exactly the denomination (bond refunded)",
    )
    checks.expect(after["alice"] - before["alice"] == -denom, "Alice paid the deposit")
    expected_kinds = [
        "Deposit", "BlockSubmitted", "BlockSubmitted", "BlockSubmitted",
        "ExitStarted", "ExitFinalized", "Withdrawn",
    ]
    checks.expect(sim.event_kinds() == expected_kinds, f"event trace {sim.event_kinds()}")
    return _finish("S1", sim, checks, before)


# ---------------------------------------------------------------------------
# S2: exit of a spent coin, challenged with the direct spend
# ---------------------------------------------------------------------------

def scenario_s2(seed: int, params: ChainParams, watcher: bool = True) -> ScenarioReport:
    sim = Simulation(params=params)
    checks = _Checks()
    for name in ("alice", "bob"):
        sim.actor(name)
    before = sim.balances_snapshot()
    denom = 5

    slot = sim.deposit("alice", denom)
    deposit_block = sim.contract.coins[slot].deposit_block
    sim.transfer("alice", slot, "bob")
    sim.commit_block()
    checks.expect(bool(sim.deliver("alice", slot, "bob")), "Bob must accept the history")

    # Alice immediately exits the coin she just spent, using the deposit tx
    deposit_itx = sim.operator.get_witness(slot, deposit_block)
    sim.exit_with("alice", slot, None, deposit_itx)

    if watcher:
        actions = sim.run_watchers()
        checks.expect(
            [a.kind for a in actions if a.ok] == ["after"],
            f"Bob must cancel via a direct-spend challenge, got {actions}",
        )
        checks.expect(slot not in sim.contract.exits, "exit must be cancelled")
        checks.expect(
            sim.contract.coins[slot].state is CoinState.DEPOSITED,
            "coin must return to DEPOSITED",
        )
        after = sim.balances_snapshot()
        checks.expect(
            after["alice"] - before["alice"] == -denom - params.bond_amount,
            "Alice loses deposit value and her slashed bond",
        )
        checks.expect(
            after["bob"] - before["bob"] == params.bond_amount,
            "Bob is paid Alice's bond",
        )
        checks.expect("ChallengedAfter" in sim.event_kinds(), "challenge must be logged")
        # Bob can still settle his coin afterwards
        sim.start_exit("bob", slot)
        sim.advance_time(params.maturity_period)
        sim.finalize(slot)
        checks.expect(sim.withdraw("bob", slot) == denom, "Bob withdraws his coin")
    else:
        sim.advance_time(params.maturity_period)
        checks.expect(sim.finalize(slot) == "Finalized", "unwatched fraud must finalize")
        sim.withdraw("alice", slot)
        checks.expect(
            sim.contract.coins[slot].owner != sim.ledger.true_owner(slot),
            "attack success: the withdrawer is not the true owner",
        )
    return _finish("S2", sim, checks, before)


# ---------------------------------------------------------------------------
# S3: double-spend exit, challenged with the earlier same-parent spend
# ---------------------------------------------------------------------------

def scenario_s3(seed: int, params: ChainParams, watcher: bool = True) -> ScenarioReport:
    sim = Simulation(params=params, operator_mode=OperatorMode.INCLUDE_DOUBLE_SPEND)
    checks = _Checks()
    for name in ("alice", "bob", "charlie"):
        sim.actor(name)
    before = sim.balances_snapshot()
    denom = 5

    slot = sim.deposit("alice", denom)
    deposit_block = sim.contract.coins[slot].deposit_block
    sim.transfer("alice", slot, "bob")
    sim.commit_block()
    checks.expect(bool(sim.deliver("alice", slot, "bob")), "Bob must accept the history")

    # colluding operator includes Alice's second spend of the same parent
    double = make_transfer_tx(
        sim.wallets["alice"].signer, slot, deposit_block, sim.address("charlie")
    )
    checks.expect(sim.operator.submit_tx(double).accepted, "colluding operator accepts the double spend")
    double_block = sim.commit_block()

    parent_itx = sim.operator.get_witness(slot, deposit_block)
    exit_itx = sim.operator.get_witness(slot, double_block.number)
    sim.exit_with("charlie", slot, parent_itx, exit_itx)

    if watcher:
        actions = sim.run_watchers()
        checks.expect(
            [a.kind for a in actions if a.ok] == ["between"],
            f"Bob must cancel via a between challenge, got {actions}",
        )
        checks.expect(slot not in sim.contract.exits, "exit must be cancelled")
        after = sim.balances_snapshot()
        checks.expect(
            after["charlie"] - before["charlie"] == -params.bond_amount,
            "Charlie loses his bond",
        )
        checks.expect(
            after["bob"] - before["bob"] == params.bond_amount,
            "Bob is paid Charlie's bond",
        )
        checks.expect("ChallengedBetween" in sim.event_kinds(), "challenge must be logged")
        checks.expect(
            sim.ledger.true_owner(slot) == sim.address("bob"),
            "ground truth: the earliest owner keeps the coin",
        )
    else:
        sim.advance_time(params.maturity_period)
        checks.expect(sim.finalize(slot) == "Finalized", "unwatched fraud must finalize")
        sim.withdraw("charlie", slot)
        checks.expect(
            sim.contract.coins[slot].owner != sim.ledger.true_owner(slot),
            "attack success: the withdrawer is not the true owner",
        )
    return _finish("S3", sim, checks, before)


# ---------------------------------------------------------------------------
# S4: invalid-history exit, killed by an unanswered interactive challenge
# ---------------------------------------------------------------------------

def scenario_s4(seed: int, params: ChainParams, watcher: bool = True) -> ScenarioReport:
    sim = Simulation(params=params, operator_mode=OperatorMode.INCLUDE_FORGED_TX)
    checks = _Checks()
    for name in ("alice", "bob", "charlie", "dylan"):
        sim.actor(name)
    before = sim.balances_snapshot()
    denom = 5

    slot = sim.deposit("alice", denom)
    deposit_block = sim.contract.coins[slot].deposit_block

    # operator includes a forged Alice -> Bob spend (garbage signature)
    forged = Transaction(
        slot=slot,
        parent_block=deposit_block,
        new_owner=sim.address("bob"),
        signature=bytes(52),
    )
    sim.operator.inject_raw_tx(forged)
    forged_block = sim.commit_block()

    bob_tx = make_transfer_tx(
        sim.wallets["bob"].signer, slot, forged_block.number, sim.address("charlie")
    )
    checks.expect(sim.operator.submit_tx(bob_tx).accepted, "Bob's spend builds on the forgery")
    charlie_block = sim.commit_block()

    charlie_tx = make_transfer_tx(
        sim.wallets["charlie"].signer, slot, charlie_block.number, sim.address("dylan")
    )
    checks.expect(sim.operator.submit_tx(charlie_tx).accepted, "Charlie forwards to Dylan")
    dylan_block = sim.commit_block()

    # From the contract's point of view Dylan's exit looks valid
    parent_itx = sim.operator.get_witness(slot, charlie_block.number)
    exit_itx = sim.operator.get_witness(slot, dylan_block.number)
    sim.exit_with("dylan", slot, parent_itx, exit_itx)

    # an honest receiver would have rejected this history outright
    full = build_history(slot, deposit_block, sim.contract.root_view(), sim.operator.get_witness)
    verdict = verify_history(
        full, sim.contract.root_view(), sim.address("alice"), sim.keyring, sim.contract.config
    )
    checks.expect(not verdict.accepted, "the forged history must not verify")

    if watcher:
        actions = sim.run_watchers()
        checks.expect(
            [a.kind for a in actions if a.ok] == ["before"],
            f"Alice must stake an interactive challenge, got {actions}",
        )
        challenge_id = sim.contract.exits[slot].challenges[0].challenge_id
        # the only would-be response is the forged spend, which cannot recover
        forged_itx = sim.operator.get_witness(slot, forged_block.number)
        checks.expect_raises(
            BadSignature,
            lambda: sim.contract.respond_challenge_before(
                sim.address("dylan"), slot, challenge_id, forged_itx
            ),
            "responding with the forged spend must fail",
        )
        sim.advance_time(params.maturity_period)
        checks.expect(
            sim.finalize(slot) == "CancelledByChallenge",
            "exit must die with an unanswered challenge",
        )
        checks.expect(
            sim.contract.coins[slot].state is CoinState.DEPOSITED,
            "coin must return to DEPOSITED",
        )
        after = sim.balances_snapshot()
        checks.expect(
            after["dylan"] - before["dylan"] == -params.bond_amount,
            "Dylan loses his exit bond",
        )
        checks.expect(
            after["alice"] - before["alice"] == params.bond_amount - denom,
            "Alice wins the exit bond and has her challenge bond back",
        )
        # Alice can still settle her coin
        sim.start_exit("alice", slot)
        sim.advance_time(params.maturity_period)
        sim.finalize(slot)
        checks.expect(sim.withdraw("alice", slot) == denom, "Alice recovers her coin")
    else:
        sim.advance_time(params.maturity_period)
        checks.expect(sim.finalize(slot) == "Finalized", "unwatched fraud must finalize")
        sim.withdraw("dylan", slot)
        checks.expect(
            sim.contract.coins[slot].owner != sim.ledger.true_owner(slot),
            "attack success: the withdrawer is not the true owner",
        )
    return _finish("S4", sim, checks, before)


# ---------------------------------------------------------------------------
# S5: witness withholding and the griefing challenge
# ---------------------------------------------------------------------------

def scenario_s5(seed: int, params: ChainParams, watcher: bool = True) -> ScenarioReport:
    sim = Simulation(params=params, operator_mode=OperatorMode.WITHHOLD_WITNESS)
    checks = _Checks()
    for name in ("alice", "bob"):
        sim.actor(name)
    before = sim.balances_snapshot()
    denom = 5

    slot = sim.deposit("alice", denom)
    deposit_block = sim.contract.coins[slot].deposit_block
    sim.transfer("alice", slot, "bob")
    block = sim.commit_block()
    sim.operator.withhold(slot, block.number)

    # neither party can assemble a verifiable history
    view = sim.contract.root_view()
    for _ in ("alice", "bob"):
        checks.expect_raises(
            WitnessUnavailable,
            lambda: build_history(slot, deposit_block, view, sim.operator.get_witness),
            "withheld witness must surface, not be fabricated",
        )

    if not watcher:
        # Alice never logs in: the coin is simply stuck in limbo
        checks.expect(slot not in sim.contract.exits, "no exit was ever started")
        checks.expect(
            sim.contract.coins[slot].state is CoinState.DEPOSITED,
            "attack success: the coin stays frozen on the plasmachain",
        )
        return _finish("S5", sim, checks, before)

    # Alice must assume the operator is malicious and exit with her last
    # provable ownership: the deposit
    sim.start_exit("alice", slot)

    # the operator cancels the exit with the very spend it was withholding
    revealed = sim.operator.blocks[block.number].prove(slot)
    sim.contract.challenge_after(sim.operator.address, slot, revealed)

    checks.expect(slot not in sim.contract.exits, "exit must be cancelled")
    after = sim.balances_snapshot()
    checks.expect(
        after["alice"] - before["alice"] == -denom - params.bond_amount,
        "Alice loses exactly one bond (plus the still-deposited value)",
    )
    checks.expect(
        after["operator"] - before["operator"] == params.bond_amount,
        "the operator pockets the bond",
    )

    # but the challenge event revealed the witness data for everyone
    challenge_events = [e for e in sim.contract.events if e.kind == "ChallengedAfter"]
    checks.expect(len(challenge_events) == 1, "exactly one challenge event")
    if challenge_events:
        config = sim.contract.config
        itx = IncludedTx.decode(bytes.fromhex(challenge_events[0].data["witness"]), config)
        checks.expect(
            smt.verify(slot, itx.tx.hash(), itx.proof, sim.contract.roots[itx.blk_number], config),
            "revealed witness must prove the withheld inclusion",
        )
        checks.expect(
            itx.tx.new_owner == sim.address("bob"),
            "both parties now know the transfer to Bob settled",
        )
    return _finish("S5", sim, checks, before)


SCENARIOS: Dict[str, Callable[[int, ChainParams, bool], ScenarioReport]] = {
    "S1": scenario_s1,
    "S2": scenario_s2,
    "S3": scenario_s3,
    "S4": scenario_s4,
    "S5": scenario_s5,
}


def run(
    name: str,
    seed: int = 0,
    params: Optional[ChainParams] = None,
    watcher: bool = True,
) -> ScenarioReport:
    if name not in SCENARIOS:
        raise UnknownScenario(f"{name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name](seed, params or ChainParams(), watcher)


# ---------------------------------------------------------------------------
# randomized interleaving harness
# ---------------------------------------------------------------------------

_LEGAL_TRANSITIONS = {
    (CoinState.DEPOSITED, CoinState.EXITING),
    (CoinState.EXITING, CoinState.DEPOSITED),
    (CoinState.EXITING, CoinState.EXITED),
    (CoinState.EXITED, CoinState.WITHDRAWN),
}


def fuzz(
    steps: int,
    seed: int = 0,
    params: Optional[ChainParams] = None,
    byzantine: bool = False,
) -> ScenarioReport:
    """Random interleavings of deposits, transfers, exits, challenges, and
    settlement, with invariants checked after every step."""
    params = params or ChainParams(maturity_period=8, smt_depth=16)
    rng = random.Random(seed)
    mode = OperatorMode.INCLUDE_DOUBLE_SPEND if byzantine else OperatorMode.HONEST
    sim = Simulation(params=params, operator_mode=mode, initial_balance=1_000_000)
    checks = _Checks()

    honest = [f"h{i}" for i in range(4)]
    attacker = "attacker" if byzantine else None
    actors = honest + ([attacker] if attacker else [])
    for name in actors:
        sim.actor(name)
    before = sim.balances_snapshot()
    total0 = sim.contract.total_value()

    pending: Dict[int, Tuple[str, str]] = {}  # slot -> (sender, receiver), in submission order
    exits_started: Dict[int, str] = {}
    frozen: set = set()  # coins with tainted history: exit-only
    stale_credentials: List = []  # (slot, parent_block) the attacker can re-spend
    attacker_deposits: Dict[int, int] = {}  # slot -> deposit block
    deliveries = rejected = 0
    violations: List[str] = []
    prev_states: Dict[int, CoinState] = {}

    addr_to_name = {sim.address(n): n for n in actors}

    def note(v: str):
        if len(violations) < 20:
            violations.append(v)

    live_slots: List[int] = []  # coins not yet withdrawn; slots are minted sequentially
    sweep = count()

    def check_invariants(full: bool = False):
        if sim.contract.total_value() != total0:
            note(f"value not conserved: {sim.contract.total_value()} != {total0}")
        for a, bal in sim.contract.balances.items():
            if bal < 0:
                note(f"negative balance for {a}")
        coins = sim.contract.coins
        for slot in range(len(prev_states), len(coins)):
            prev_states[slot] = coins[slot].state
            live_slots.append(slot)
        # withdrawal is terminal, so settled coins leave the per-step scan;
        # a periodic full sweep still catches a resurrected coin
        slots = coins if full or next(sweep) % 64 == 0 else live_slots
        still: List[int] = []
        for slot in slots:
            state = coins[slot].state
            prev = prev_states[slot]
            if prev is not state:
                if (prev, state) not in _LEGAL_TRANSITIONS:
                    note(f"illegal transition {prev} -> {state} on slot {slot}")
                prev_states[slot] = state
            if state is not CoinState.WITHDRAWN:
                still.append(slot)
        if slots is live_slots:
            live_slots[:] = still

    def holder(slot: int) -> Optional[str]:
        for n in actors:
            if sim.actor(n).owns(slot):
                return n
        return None

    def do_deposit():
        active = sum(
            1 for c in sim.contract.coins.values() if c.state is not CoinState.WITHDRAWN
        )
        if active >= 25:
            return
        name = rng.choice(actors)
        slot = sim.deposit(name, rng.randint(1, 9))
        if name == attacker:
            attacker_deposits[slot] = sim.contract.coins[slot].deposit_block

    def free(slot: int) -> bool:
        """No exit started, not exiting or settled, no delivery pending."""
        return (
            slot not in exits_started
            and sim.contract.coins[slot].state is CoinState.DEPOSITED
            and slot not in pending
        )

    def do_transfer():
        candidates = [
            (n, s) for n in actors for s in sim.actor(n).coins if s not in frozen and free(s)
        ]
        if not candidates:
            return
        sender, slot = rng.choice(candidates)
        receiver = rng.choice([n for n in actors if n != sender])
        tx, receipt = sim.transfer(sender, slot, receiver)
        if receipt.accepted:
            pending[slot] = (sender, receiver)
            if sender == attacker:
                stale_credentials.append((slot, tx.parent_block))

    def do_commit():
        nonlocal deliveries, rejected
        sim.commit_block()
        for slot, (sender, receiver) in pending.items():
            verdict = sim.deliver(sender, slot, receiver)
            deliveries += 1
            if not verdict:
                rejected += 1
                frozen.add(slot)
        pending.clear()
        sim.run_watchers()

    def do_honest_exit():
        candidates = [(n, s) for n in honest for s in sim.actor(n).coins if free(s)]
        if not candidates:
            return
        name, slot = rng.choice(candidates)
        tip = sim.actor(name).last_inclusion(slot)
        if tip.tx.new_owner != sim.address(name):
            return  # already signed away on-chain; cannot exit
        try:
            sim.start_exit(name, slot)
        except PlasmaError:
            return
        exits_started[slot] = name
        sim.run_watchers()

    def do_attack():
        if not byzantine:
            return
        choice = rng.random()
        if choice < 0.5 and stale_credentials:
            # double spend an old parent to self, then exit with it
            slot, parent_block = rng.choice(stale_credentials)
            if not free(slot):
                return
            double = make_transfer_tx(
                sim.wallets[attacker].signer, slot, parent_block, sim.address(attacker)
            )
            if not sim.operator.submit_tx(double).accepted:
                return
            block = sim.commit_block()
            sim.run_watchers()
            try:
                parent_itx = sim.operator.get_witness(slot, parent_block)
                exit_itx = sim.operator.get_witness(slot, block.number)
                sim.exit_with(attacker, slot, parent_itx, exit_itx)
            except PlasmaError:
                return
            exits_started[slot] = attacker
            sim.run_watchers()
        elif attacker_deposits:
            # exit a deposited coin the attacker has since spent away
            slot = rng.choice(sorted(attacker_deposits))
            if not free(slot):
                return
            try:
                deposit_itx = sim.operator.get_witness(slot, attacker_deposits[slot])
                sim.exit_with(attacker, slot, None, deposit_itx)
            except PlasmaError:
                return
            exits_started[slot] = attacker
            sim.run_watchers()

    def settle_exits():
        for slot, name in list(exits_started.items()):
            ex = sim.contract.exits.get(slot)
            if ex is None:
                del exits_started[slot]  # challenged away
                continue
            if sim.contract.clock < ex.created_at + params.maturity_period:
                continue
            outcome = sim.finalize(slot)
            del exits_started[slot]
            check_invariants()  # observe the post-finalization state too
            if outcome != "Finalized":
                continue
            true_owner = sim.ledger.true_owner(slot)
            owner_name = addr_to_name.get(sim.contract.coins[slot].owner)
            if sim.contract.coins[slot].owner != true_owner and addr_to_name.get(true_owner) in honest:
                note(f"honest coin {slot} finalized to {owner_name}")
            if owner_name is not None:
                sim.withdraw(owner_name, slot)

    action_weights = [
        (do_deposit, 3),
        (do_transfer, 6),
        (do_commit, 4),
        (do_honest_exit, 2),
        (do_attack, 2 if byzantine else 0),
        (lambda: sim.advance_time(rng.randint(1, 3)), 3),
    ]
    actions = [a for a, w in action_weights for _ in range(w)]

    for _ in range(steps):
        rng.choice(actions)()
        settle_exits()
        check_invariants()
    check_invariants(full=True)

    # end of run: every withdrawn coin must have gone to its true owner
    # unless the true owner is the attacker itself
    for slot, coin in sim.contract.coins.items():
        if coin.state is CoinState.WITHDRAWN:
            true_owner = sim.ledger.true_owner(slot)
            if coin.owner != true_owner and addr_to_name.get(true_owner) in honest:
                note(f"slot {slot} withdrawn by the wrong party")
    if not byzantine and rejected:
        note(f"{rejected} honest deliveries rejected")

    checks.failures.extend(violations)
    return _finish(
        f"fuzz-{'byzantine' if byzantine else 'honest'}",
        sim,
        checks,
        before,
        extras={
            "steps": steps,
            "seed": seed,
            "deliveries": deliveries,
            "rejected": rejected,
            "coins": len(sim.contract.coins),
            "blocks": len(sim.contract.roots),
        },
    )
