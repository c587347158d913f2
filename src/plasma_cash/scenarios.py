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
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .core import IncludedTx, PlasmaBlock, Transaction, make_transfer_tx
from .errors import (
    BadSignature,
    PlasmaError,
    UnknownScenario,
    WitnessUnavailable,
)
from .history import CoinHistory, Mark, extend_history, verify_history
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
        return json.dumps(asdict(self), indent=2, sort_keys=True)


DENOM = 5  # the value of every scripted scenario's coin


class _Run:
    """One run: the simulation, the balances it started from and the
    failures seen so far, with the moves the scripted scenarios and the
    fuzz share."""

    def __init__(self, name: str, sim: Simulation, actors: Iterable[str]):
        self.name = name
        self.sim = sim
        self.failures: List[str] = []
        for actor in actors:
            sim.actor(actor)
        self.before = sim.balances_snapshot()

    def note(self, message: str):
        """Record a failure; a run keeps its first 20."""
        if len(self.failures) < 20:
            self.failures.append(message)

    def expect(self, cond: bool, message: str):
        if not cond:
            self.note(message)

    def expect_raises(self, exc_type, op, message: str):
        try:
            op()
        except exc_type:
            return
        except Exception as exc:  # wrong error is also a failure
            self.note(f"{message} (got {type(exc).__name__})")
            return
        self.note(f"{message} (no error raised)")

    def expect_delta(self, name: str, delta: int, message: str):
        """``name``'s balance has moved by exactly ``delta`` since the start."""
        self.expect(self.sim.balances_snapshot()[name] - self.before[name] == delta, message)

    def handoff(self, sender: str, slot: int, receiver: str):
        """Honest hand-off: transfer, commit the block, deliver the history."""
        _, receipt = self.sim.transfer(sender, slot, receiver)
        self.expect(receipt.accepted, f"{sender}'s transfer must be accepted")
        self.sim.commit_block()
        self.expect(
            self.sim.deliver(sender, slot, receiver).accepted, f"{receiver} must accept the history"
        )

    def include(self, tx: Transaction) -> PlasmaBlock:
        """A colluding operator includes ``tx`` unchecked in a new block."""
        self.expect(self.sim.operator.inject_raw_tx(tx).accepted, "the operator must include the tx")
        return self.sim.commit_block()

    def spend(self, sender: str, slot: int, parent_block: int, receiver: str) -> PlasmaBlock:
        """``sender`` signs a spend of the coin's output at ``parent_block``
        straight to the operator, which includes it."""
        sim = self.sim
        return self.include(
            make_transfer_tx(sim.actor(sender).signer, slot, parent_block, sim.address(receiver))
        )

    def challenged(self, kinds: List[str], who: str):
        """Run the watchers: exactly the challenges ``kinds`` succeed."""
        actions = self.sim.run_watchers()
        self.expect(
            [a.kind for a in actions if a.ok] == kinds,
            f"{who} must challenge with {kinds}, got {actions}",
        )

    def settle(self, name: str, slot: int):
        """The live exit of ``slot`` matures, finalizes and pays ``name``."""
        sim = self.sim
        sim.advance_time(sim.params.maturity_period)
        self.expect(sim.finalize(slot) == "Finalized", f"the exit of slot {slot} must finalize")
        self.expect(sim.withdraw(name, slot) == DENOM, f"{name} must withdraw the denomination")

    def exit_and_withdraw(self, name: str, slot: int):
        """``name`` exits ``slot`` from its own history, unchallenged."""
        self.sim.start_exit(name, slot)
        self.sim.run_watchers()
        self.settle(name, slot)

    def cancelled(self, slot: int, kind: str):
        """The exit of ``slot`` is gone, its coin reopened and ``kind`` logged."""
        contract = self.sim.contract
        self.expect(slot not in contract.exits, "exit must be cancelled")
        self.expect(
            contract.coins[slot].state is CoinState.DEPOSITED, "coin must return to DEPOSITED"
        )
        self.expect(kind in self.sim.event_kinds(), f"{kind} must be logged")

    def theft_settles(self, thief: str, slot: int) -> ScenarioReport:
        """With no watcher, the fraudulent exit matures and pays the thief."""
        self.settle(thief, slot)
        self.expect(
            self.sim.contract.coins[slot].owner != self.sim.ledger.true_owner(slot),
            "attack success: the withdrawer is not the true owner",
        )
        return self.report()

    def report(self, extras: Optional[dict] = None) -> ScenarioReport:
        sim = self.sim
        before, after = self.before, sim.balances_snapshot()
        ledger = {k: after.get(k, 0) - before.get(k, 0) for k in set(before) | set(after)}
        return ScenarioReport(
            name=self.name,
            passed=not self.failures,
            failures=self.failures,
            event_trace=sim.event_trace(),
            bond_ledger=ledger,
            elapsed_steps=len(sim.contract.events),
            extras=extras or {},
        )


# ---------------------------------------------------------------------------
# S1: deposit -> two transfers (with a gap block) -> exit -> withdraw
# ---------------------------------------------------------------------------

def scenario_s1(params: ChainParams, watcher: bool = True) -> ScenarioReport:
    run = _Run("S1", Simulation(params=params), ("alice", "bob", "charlie"))
    sim = run.sim

    slot = sim.deposit("alice", DENOM)
    run.handoff("alice", slot, "bob")
    sim.commit_block()  # a block in which the coin does not move
    run.handoff("bob", slot, "charlie")
    run.exit_and_withdraw("charlie", slot)

    run.expect(
        sim.contract.coins[slot].state is CoinState.WITHDRAWN, "coin must end WITHDRAWN"
    )
    run.expect(
        sim.ledger.true_owner(slot) == sim.address("charlie"),
        "ground truth must agree Charlie owns the coin",
    )
    run.expect_delta("charlie", DENOM, "Charlie nets exactly the denomination (bond refunded)")
    run.expect_delta("alice", -DENOM, "Alice paid the deposit")
    expected_kinds = [
        "Deposit", "BlockSubmitted", "BlockSubmitted", "BlockSubmitted",
        "ExitStarted", "ExitFinalized", "Withdrawn",
    ]
    run.expect(sim.event_kinds() == expected_kinds, f"event trace {sim.event_kinds()}")
    return run.report()


# ---------------------------------------------------------------------------
# S2: exit of a spent coin, challenged with the direct spend
# ---------------------------------------------------------------------------

def scenario_s2(params: ChainParams, watcher: bool = True) -> ScenarioReport:
    run = _Run("S2", Simulation(params=params), ("alice", "bob"))
    sim = run.sim

    slot = sim.deposit("alice", DENOM)
    run.handoff("alice", slot, "bob")

    # Alice immediately exits the coin she just spent, using the deposit tx
    sim.exit_with("alice", slot, None, sim.contract.coins[slot].deposit_block)

    if not watcher:
        return run.theft_settles("alice", slot)
    run.challenged(["after"], "Bob")
    run.cancelled(slot, "ChallengedAfter")
    run.expect_delta(
        "alice", -DENOM - params.bond_amount, "Alice loses deposit value and her slashed bond"
    )
    run.expect_delta("bob", params.bond_amount, "Bob is paid Alice's bond")
    # Bob can still settle his coin afterwards
    run.exit_and_withdraw("bob", slot)
    return run.report()


# ---------------------------------------------------------------------------
# S3: double-spend exit, challenged with the earlier same-parent spend
# ---------------------------------------------------------------------------

def scenario_s3(params: ChainParams, watcher: bool = True) -> ScenarioReport:
    run = _Run("S3", Simulation(params=params), ("alice", "bob", "charlie"))
    sim = run.sim

    slot = sim.deposit("alice", DENOM)
    deposit_block = sim.contract.coins[slot].deposit_block
    run.handoff("alice", slot, "bob")

    # colluding operator includes Alice's second spend of the same parent
    double_block = run.spend("alice", slot, deposit_block, "charlie")
    sim.exit_with("charlie", slot, deposit_block, double_block.number)

    if not watcher:
        return run.theft_settles("charlie", slot)
    run.challenged(["between"], "Bob")
    run.cancelled(slot, "ChallengedBetween")
    run.expect_delta("charlie", -params.bond_amount, "Charlie loses his bond")
    run.expect_delta("bob", params.bond_amount, "Bob is paid Charlie's bond")
    run.expect(
        sim.ledger.true_owner(slot) == sim.address("bob"),
        "ground truth: the earliest owner keeps the coin",
    )
    return run.report()


# ---------------------------------------------------------------------------
# S4: invalid-history exit, killed by an unanswered interactive challenge
# ---------------------------------------------------------------------------

def scenario_s4(params: ChainParams, watcher: bool = True) -> ScenarioReport:
    run = _Run("S4", Simulation(params=params), ("alice", "bob", "charlie", "dylan"))
    sim = run.sim

    slot = sim.deposit("alice", DENOM)
    coin = sim.contract.coins[slot]
    deposit_block = coin.deposit_block

    # operator includes a forged Alice -> Bob spend (garbage signature)
    forged_block = run.include(Transaction(slot, deposit_block, sim.address("bob"), bytes(52)))

    # Bob's spend builds on the forgery, and Charlie forwards it to Dylan
    charlie_block = run.spend("bob", slot, forged_block.number, "charlie")
    dylan_block = run.spend("charlie", slot, charlie_block.number, "dylan")

    # From the contract's point of view Dylan's exit looks valid
    sim.exit_with("dylan", slot, charlie_block.number, dylan_block.number)

    # an honest receiver, auditing from the deposit, would have rejected it outright
    view = sim.contract.view
    suffix = extend_history(CoinHistory(slot, deposit_block), view, sim.operator.get_witness)
    verdict = verify_history(
        suffix, view, sim.keyring, sim.contract.config, Mark(deposit_block, coin.deposit)
    )
    run.expect(not verdict.accepted, "the forged history must not verify")

    if not watcher:
        return run.theft_settles("dylan", slot)
    run.challenged(["before"], "Alice")
    challenge_id = sim.contract.exits[slot].challenges[0].challenge_id
    # the only would-be response is the forged spend, which cannot recover
    forged_itx = sim.operator.get_witness(slot, forged_block.number)
    run.expect_raises(
        BadSignature,
        lambda: sim.contract.respond_challenge_before(
            sim.address("dylan"), slot, challenge_id, forged_itx
        ),
        "responding with the forged spend must fail",
    )
    sim.advance_time(params.maturity_period)
    run.expect(
        sim.finalize(slot) == "CancelledByChallenge",
        "exit must die with an unanswered challenge",
    )
    run.cancelled(slot, "ExitCancelled")
    run.expect_delta("dylan", -params.bond_amount, "Dylan loses his exit bond")
    run.expect_delta(
        "alice",
        params.bond_amount - DENOM,
        "Alice wins the exit bond and has her challenge bond back",
    )
    # Alice can still settle her coin
    run.exit_and_withdraw("alice", slot)
    return run.report()


# ---------------------------------------------------------------------------
# S5: witness withholding and the griefing challenge
# ---------------------------------------------------------------------------

def scenario_s5(params: ChainParams, watcher: bool = True) -> ScenarioReport:
    run = _Run("S5", Simulation(params=params), ("alice", "bob"))
    sim = run.sim

    slot = sim.deposit("alice", DENOM)
    coin = sim.contract.coins[slot]
    sim.transfer("alice", slot, "bob")
    block = sim.commit_block()
    sim.operator.withhold(slot, block.number)

    # neither party can assemble a verifiable history: Alice cannot
    # complete the one she must hand over, and Bob, who holds nothing,
    # cannot build one from the operator
    run.expect_raises(
        WitnessUnavailable,
        lambda: sim.deliver("alice", slot, "bob"),
        "Alice's sync must surface the withheld witness, not skip it",
    )
    run.expect_raises(
        WitnessUnavailable,
        lambda: extend_history(
            CoinHistory(slot, coin.deposit_block), sim.contract.view, sim.operator.get_witness
        ),
        "Bob's build must surface the withheld witness, not fabricate it",
    )

    if not watcher:
        # Alice never logs in: the coin is simply stuck in limbo
        run.expect(slot not in sim.contract.exits, "no exit was ever started")
        run.expect(
            sim.contract.coins[slot].state is CoinState.DEPOSITED,
            "attack success: the coin stays frozen on the plasmachain",
        )
        return run.report()

    # Alice must assume the operator is malicious and exit with her last
    # provable ownership: the deposit
    sim.start_exit("alice", slot)

    # the operator cancels the exit with the very spend it was withholding
    revealed = sim.operator.blocks[block.number].prove(slot)
    sim.contract.challenge_after(sim.operator.address, slot, revealed)

    run.cancelled(slot, "ChallengedAfter")
    run.expect_delta(
        "alice",
        -DENOM - params.bond_amount,
        "Alice loses exactly one bond (plus the still-deposited value)",
    )
    run.expect_delta("operator", params.bond_amount, "the operator pockets the bond")

    # but the challenge event revealed the witness data for everyone
    challenge_events = [e for e in sim.contract.events if e.kind == "ChallengedAfter"]
    run.expect(len(challenge_events) == 1, "exactly one challenge event")
    if challenge_events:
        config = sim.contract.config
        itx = IncludedTx.decode(bytes.fromhex(challenge_events[0].data["witness"]), config)
        fault = sim.contract.view.inclusion_fault(itx, slot, coin.deposit, config)
        run.expect(
            fault is None and itx.blk_number == block.number,
            "revealed witness must prove the withheld inclusion",
        )
        run.expect(
            itx.tx.new_owner == sim.address("bob"),
            "both parties now know the transfer to Bob settled",
        )
    return run.report()


SCENARIOS: Dict[str, Callable[[ChainParams, bool], ScenarioReport]] = {
    "S1": scenario_s1,
    "S2": scenario_s2,
    "S3": scenario_s3,
    "S4": scenario_s4,
    "S5": scenario_s5,
}


def run(
    name: str,
    params: Optional[ChainParams] = None,
    watcher: bool = True,
) -> ScenarioReport:
    if name not in SCENARIOS:
        raise UnknownScenario(f"{name!r}; known: {sorted(SCENARIOS)}")
    return SCENARIOS[name](params or ChainParams(), watcher)


# ---------------------------------------------------------------------------
# randomized interleaving harness
# ---------------------------------------------------------------------------

def fuzz(steps: int, seed: int = 0, byzantine: bool = False) -> ScenarioReport:
    """Random interleavings of deposits, transfers, exits, challenges, and
    settlement.  Value conservation and non-negative balances are checked
    after every step; every coin state change is checked as it happens, by
    the contract (``rootchain.TRANSITIONS``), whose IllegalTransition no
    move here catches."""
    params = ChainParams(maturity_period=8, smt_depth=16)
    rng = random.Random(seed)
    honest = [f"h{i}" for i in range(4)]
    attacker = "attacker" if byzantine else None
    actors = honest + ([attacker] if attacker else [])
    run = _Run(
        f"fuzz-{'byzantine' if byzantine else 'honest'}",
        Simulation(params=params, initial_balance=1_000_000),
        actors,
    )
    sim = run.sim
    total0 = sim.contract.total_value()

    pending: Dict[int, Tuple[str, str]] = {}  # slot -> (sender, receiver), in submission order
    frozen: set = set()  # coins with tainted history: exit-only
    stale_credentials: List = []  # (slot, parent_block) the attacker can re-spend
    deliveries = rejected = 0
    withdrawn = 0  # coins withdrawn so far; settle_exits makes every withdrawal

    addr_to_name = {sim.address(n): n for n in actors}

    def check_invariants():
        if sim.contract.total_value() != total0:
            run.note(f"value not conserved: {sim.contract.total_value()} != {total0}")
        for a, bal in sim.contract.balances.items():
            if bal < 0:
                run.note(f"negative balance for {a}")

    def do_deposit():
        if len(sim.contract.coins) - withdrawn < 25:
            sim.deposit(rng.choice(actors), rng.randint(1, 9))

    def free(slot: int) -> bool:
        """Not exiting or settled, no delivery pending."""
        return sim.contract.coins[slot].state is CoinState.DEPOSITED and slot not in pending

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
            if not verdict.accepted:
                rejected += 1
                frozen.add(slot)
        pending.clear()
        sim.run_watchers()

    def exit_as(start: Callable[[], None]):
        """Start an exit; if the contract takes it, let the watchers react."""
        try:
            start()
        except PlasmaError:
            return
        sim.run_watchers()

    def do_honest_exit():
        candidates = [(n, s) for n in honest for s in sim.actor(n).coins if free(s)]
        if not candidates:
            return
        name, slot = rng.choice(candidates)
        exit_as(lambda: sim.start_exit(name, slot))

    def do_attack():
        choice = rng.random()
        if choice < 0.5 and stale_credentials:
            # double spend an old parent to self, then exit with it
            slot, parent_block = rng.choice(stale_credentials)
            if free(slot):  # so no spend of the slot awaits this block
                block = run.spend(attacker, slot, parent_block, attacker)
                sim.run_watchers()
                exit_as(lambda: sim.exit_with(attacker, slot, parent_block, block.number))
            return
        # exit a deposited coin the attacker has since spent away
        mine = sim.address(attacker)
        deposits = [coin for coin in sim.contract.coins.values() if coin.deposit.tx.new_owner == mine]
        if deposits:
            coin = rng.choice(deposits)  # slots are minted, hence listed, in order
            if free(coin.slot):
                exit_as(lambda: sim.exit_with(attacker, coin.slot, None, coin.deposit_block))

    def robbed(slot: int) -> bool:
        """The contract's owner of ``slot`` is not its true owner, an honest actor."""
        true_owner = sim.ledger.true_owner(slot)
        return sim.contract.coins[slot].owner != true_owner and addr_to_name.get(true_owner) in honest

    def settle_exits():
        nonlocal withdrawn
        for slot, ex in list(sim.contract.exits.items()):
            if sim.contract.clock < ex.matures_at:
                continue
            if sim.finalize(slot) != "Finalized":
                continue
            owner_name = addr_to_name.get(sim.contract.coins[slot].owner)
            run.expect(not robbed(slot), f"honest coin {slot} finalized to {owner_name}")
            if owner_name is not None:
                sim.withdraw(owner_name, slot)
                withdrawn += 1

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

    # end of run: every withdrawn coin must have gone to its true owner
    # unless the true owner is the attacker itself
    for slot, coin in sim.contract.coins.items():
        if coin.state is CoinState.WITHDRAWN and robbed(slot):
            run.note(f"slot {slot} withdrawn by the wrong party")
    run.expect(byzantine or not rejected, f"{rejected} honest deliveries rejected")

    return run.report(
        extras={
            "steps": steps,
            "seed": seed,
            "deliveries": deliveries,
            "rejected": rejected,
            "coins": len(sim.contract.coins),
            "blocks": len(sim.contract.roots),
        },
    )
