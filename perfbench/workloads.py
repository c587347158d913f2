"""The benchmark's workloads, driven through ``plasma_cash.driver.Simulation``
and ``plasma_cash.scenarios.fuzz``.

A workload is run as episodes.  Each episode draws its inputs from
``(seed, episode)``, builds a fresh simulation in ``setup`` (untimed for
throughput), and runs a fixed amount of work in ``measure``, which returns
the number of completed operations and the list of failed checks.  Fixed
work per episode keeps a rate comparable between a slow and a fast program:
a hand-off's cost depends on how long the coin's history already is.

The package is imported lazily inside each function, so the benchmark can
re-import it to time set-up and still drive the freshly imported modules.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

HANDOFFS = 128  # hand-offs of the single coin in one handoff-chain episode
CHAIN_WALLETS = 4
COINS = 64  # coins deposited during one many-coins set-up
ROUNDS = 6  # rounds per many-coins episode; each coin moves once a round
MANY_WALLETS = 8
FUZZ_STEPS = 1000  # steps per fuzz-byzantine episode


@dataclass
class Outcome:
    attempted: int
    completed: int
    failures: List[str] = field(default_factory=list)


Move = Tuple[str, int, str]  # (sender, slot, receiver)


def episode_rng(seed: int, episode: int) -> random.Random:
    return random.Random(f"{seed}/{episode}")


def _names(rng: random.Random, count: int) -> List[str]:
    return [f"u{i}-{rng.getrandbits(32):08x}" for i in range(count)]


def end_checks(sim, expected: Dict[int, str], total0: int) -> List[str]:
    """Each coin sits with the expected wallet, that wallet is the coin's
    true owner by the shadow ledger, and the contract conserved value."""
    failures = []
    for slot, name in expected.items():
        holders = [n for n, w in sim.wallets.items() if w.owns(slot)]
        if holders != [name]:
            failures.append(f"slot {slot}: held by {holders}, expected {name}")
        if sim.ledger.true_owner(slot) != sim.address(name):
            failures.append(f"slot {slot}: true owner is not {name}")
    if sim.contract.total_value() != total0:
        failures.append(f"value not conserved: {sim.contract.total_value()} != {total0}")
    return failures


def run_moves(sim, moves: List[Move], failures: List[str]) -> int:
    """Submit every transfer, commit one block, deliver to every receiver.
    Returns the number of completed hand-offs."""
    submitted = []
    for sender, slot, receiver in moves:
        _, receipt = sim.transfer(sender, slot, receiver)
        if receipt.accepted:
            submitted.append((sender, slot, receiver))
        else:
            failures.append(f"slot {slot}: transfer refused ({receipt.reason})")
    sim.commit_block()
    completed = 0
    for sender, slot, receiver in submitted:
        verdict = sim.deliver(sender, slot, receiver)
        if verdict:
            completed += 1
        else:
            failures.append(f"slot {slot}: delivery rejected ({verdict.reason} {verdict.detail})")
    return completed


@dataclass
class HandoffState:
    sim: object
    plan: List[List[Move]]  # one list of moves per block
    expected: Dict[int, str]  # final holder per slot
    total0: int


class HandoffChain:
    name = "handoff-chain"
    size_episodes = 1  # leading episodes whose delivery sizes are recorded; all have one shape

    def setup(self, seed: int, episode: int) -> HandoffState:
        from plasma_cash.driver import Simulation
        from plasma_cash.rootchain import ChainParams

        rng = episode_rng(seed, episode)
        names = _names(rng, CHAIN_WALLETS)
        first = rng.randrange(CHAIN_WALLETS)
        sim = Simulation(params=ChainParams(smt_depth=64))
        for name in names:
            sim.actor(name)  # funds every wallet before the value baseline
        slot = sim.deposit(names[first], rng.randint(1, 1000))
        plan = []
        for i in range(HANDOFFS):
            sender = names[(first + i) % CHAIN_WALLETS]
            receiver = names[(first + i + 1) % CHAIN_WALLETS]
            plan.append([(sender, slot, receiver)])
        expected = {slot: names[(first + HANDOFFS) % CHAIN_WALLETS]}
        return HandoffState(sim, plan, expected, sim.contract.total_value())

    def measure(self, state: HandoffState, mark: Optional[Callable[[], None]] = None) -> Outcome:
        failures: List[str] = []
        completed = 0
        for moves in state.plan:
            completed += run_moves(state.sim, moves, failures)
            if mark is not None:
                mark()
        failures.extend(end_checks(state.sim, state.expected, state.total0))
        return Outcome(sum(len(moves) for moves in state.plan), completed, failures)


class ManyCoins(HandoffChain):
    name = "many-coins"

    def setup(self, seed: int, episode: int) -> HandoffState:
        from plasma_cash.driver import Simulation
        from plasma_cash.rootchain import ChainParams

        rng = episode_rng(seed, episode)
        names = _names(rng, MANY_WALLETS)
        sim = Simulation(params=ChainParams(smt_depth=64))
        for name in names:
            sim.actor(name)
        holder = {}
        for _ in range(COINS):
            name = rng.choice(names)
            holder[sim.deposit(name, rng.randint(1, 100))] = name
        plan = []
        for _ in range(ROUNDS):
            order = sorted(holder)
            rng.shuffle(order)
            moves = []
            for slot in order:
                receiver = rng.choice([n for n in names if n != holder[slot]])
                moves.append((holder[slot], slot, receiver))
                holder[slot] = receiver
            plan.append(moves)
        return HandoffState(sim, plan, dict(holder), sim.contract.total_value())


class FuzzByzantine:
    name = "fuzz-byzantine"
    # histories differ in length from episode to episode, so delivery sizes
    # are averaged over this many leading episodes of a run
    size_episodes = 48

    def setup(self, seed: int, episode: int) -> int:
        """The fuzz harness builds its own simulation inside the measured
        call; set-up is the import and drawing the fuzz seed."""
        return episode_rng(seed, episode).getrandbits(32)

    def measure(self, fuzz_seed: int, mark=None) -> Outcome:
        from plasma_cash.scenarios import fuzz

        report = fuzz(FUZZ_STEPS, seed=fuzz_seed, byzantine=True)
        failures = list(report.failures)
        if not report.passed and not failures:
            failures.append("fuzz report did not pass")
        return Outcome(FUZZ_STEPS, 0 if failures else FUZZ_STEPS, failures)


WORKLOADS = {w.name: w for w in (HandoffChain(), ManyCoins(), FuzzByzantine())}


class HandoffProbe:
    """Times each hand-off from transfer submission to the receiver's
    verdict by wrapping ``Simulation.transfer`` and ``Simulation.deliver``,
    and keeps a shallow copy of each delivered history (histories are
    extended in place later) so its encoded size is measured untimed."""

    def __init__(self):
        self.latencies: List[float] = []
        self.delivered: List[Tuple[object, object]] = []  # (history copy, config)
        self.history_bytes: List[int] = []
        self._submitted: Dict[Tuple[int, int], float] = {}

    def reset(self):
        self._submitted.clear()
        self.latencies.clear()

    def encode_delivered(self, record: bool):
        """Drop the histories delivered since the last call, recording their
        encoded sizes first if ``record``."""
        if record:
            for history, config in self.delivered:
                self.history_bytes.append(len(history.encode(config)))
        self.delivered.clear()

    def install(self):
        from plasma_cash.driver import Simulation
        from plasma_cash.history import CoinHistory

        transfer, deliver = Simulation.transfer, Simulation.deliver
        probe = self

        def timed_transfer(sim, sender, slot, receiver):
            t0 = perf_counter()
            tx, receipt = transfer(sim, sender, slot, receiver)
            if receipt.accepted:
                probe._submitted[id(sim), slot] = t0
            return tx, receipt

        def timed_deliver(sim, sender, slot, receiver):
            verdict = deliver(sim, sender, slot, receiver)
            t1 = perf_counter()
            t0 = probe._submitted.pop((id(sim), slot), None)
            if verdict and t0 is not None:
                probe.latencies.append(t1 - t0)
            h = sim.wallets[receiver if verdict else sender].coins[slot]
            snapshot = CoinHistory(h.slot, h.deposit_block, dict(h.incl), dict(h.excl))
            probe.delivered.append((snapshot, sim.contract.config))
            return verdict

        Simulation.transfer, Simulation.deliver = timed_transfer, timed_deliver
