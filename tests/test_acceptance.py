"""Acceptance gate: one test per headline guarantee, each printing a
single PASS/FAIL line (replayed in the terminal summary so every line
shows in the run log)."""

import math
import random
import statistics
import sys
import time

import conftest

from plasma_cash.bench import bench_compact_proofs
from plasma_cash.core import (
    IncludedTx,
    Keyring,
    PlasmaBlock,
    make_deposit_tx,
    make_transfer_tx,
)
from plasma_cash.history import CoinHistory, Reason, valid_tip
from plasma_cash.scenarios import fuzz, run
from plasma_cash.smt import SmtConfig, SparseMerkleTree, hash_pair


def report(name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.acceptance_lines.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_compact_proof_sizes():
    """Depth-64 tree, 2378 uniformly random occupied slots: the mean compact
    proof is within 1% of its closed form.  The level-i sibling covers 2^i
    slots, so it is non-default iff one of the other txs-1 slots falls in
    it; the expected sibling count is
    sum_{i<depth} (1 - (1 - 2^(i-depth))^(txs-1)) ~= 11.548, giving a mean of
    8 + 32 * 11.548 ~= 377.5 bytes.  Every proof must be the 8-byte bitfield
    followed by at least one whole 32-byte sibling."""
    txs, depth = 2378, 64
    bitfield_bytes = (depth + 7) // 8
    expected_siblings = sum(
        -math.expm1((txs - 1) * math.log1p(-(2.0 ** (i - depth))))
        for i in range(depth)
    )
    expected_mean = bitfield_bytes + 32 * expected_siblings
    low, high = 0.99 * expected_mean, 1.01 * expected_mean

    def whole_siblings(size):
        k, rest = divmod(size - bitfield_bytes, 32)
        return rest == 0 and k >= 1

    t0 = time.monotonic()
    stats = bench_compact_proofs(txs=txs, depth=depth, trials=1000, seed=0)
    elapsed = time.monotonic() - t0
    mean = stats["mean_compact"]
    ok = (
        low <= mean <= high
        and whole_siblings(stats["min_compact"])
        and whole_siblings(stats["max_compact"])
        and elapsed < 10
    )
    report(
        "compact-proof-size",
        ok,
        f"expected_mean={expected_mean:.1f} "
        f"mean_compact={mean:.1f} bounds=[{low:.1f},{high:.1f}] "
        f"mean_siblings={(mean - bitfield_bytes) / 32:.2f} "
        f"min={stats['min_compact']} max={stats['max_compact']} "
        f"elapsed={elapsed:.1f}s",
    )


def test_smt_matches_dense_oracle():
    """Roots and every proof agree with a brute-force dense tree for 1000
    random leaf maps at depths up to 8 (``conftest.DenseTree``).  Each dense
    node is its level's default, a lone leaf's ``hash_pair(slot, leaf)`` (the
    leaf itself at level 0), or the hash of its children; an absent slot
    whose lowest non-empty sibling holds one leaf names that leaf as its
    neighbour in place of the sibling."""
    t0 = time.monotonic()
    rng = random.Random(0)
    checked = 0
    for trial in range(1000):
        depth = rng.randint(1, 8)
        config = SmtConfig(depth=depth)
        count = rng.randint(0, config.capacity)
        leaves = {
            s: hash_pair(b"\x01" * 32, s.to_bytes(32, "big"))
            for s in rng.sample(range(config.capacity), count)
        }
        sparse, dense = SparseMerkleTree(config, leaves), conftest.DenseTree(config, leaves)
        if sparse.root != dense.root or any(
            sparse.prove(slot) != dense.prove(slot) for slot in range(config.capacity)
        ):
            break
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked == 1000 and elapsed < 30
    report("smt-oracle-equivalence", ok, f"maps={checked} elapsed={elapsed:.1f}s")


def _random_chain(rng, trial):
    c = conftest.Chain()
    signers = [c.keyring.new_signer(f"{trial}-{i}") for i in range(4)]
    owner, last = signers[0], 1
    c.add_block(1, {0: make_deposit_tx(0, owner.address)})
    number = 1000
    for _ in range(rng.randint(0, 10)):
        if rng.random() < 0.6:
            nxt = rng.choice(signers)
            c.add_block(number, {0: make_transfer_tx(owner, 0, last, nxt.address)})
            owner, last = nxt, number
        else:
            c.add_idle_block(number)
        number += 1000
    return c, signers[0]


def test_history_verifier_corpus():
    """verify_history agrees with the block-replay oracle on 500 random
    honest chains, and each scripted corruption yields its reason code.  A
    receiver audits from the coin's deposit entry, so a deposit entry handed
    in the history, here a forged one, is a partition gap."""
    rng = random.Random(42)
    agree = 0
    for trial in range(500):
        c, _ = _random_chain(rng, trial)
        history = c.history()
        verdict = c.audit(history)
        tip = valid_tip(history, c.keyring, c.deposits[1])
        owner, last = c.replay_owner()
        if verdict and tip.tx.new_owner == owner and tip.blk_number == last:
            agree += 1

    def corrupted(mutate):
        c = conftest.Chain()
        alice = c.keyring.new_signer("alice")
        bob = c.keyring.new_signer("bob")
        c.add_block(1, {0: make_deposit_tx(0, alice.address)})
        c.add_block(1000, {0: make_transfer_tx(alice, 0, 1, bob.address)})
        c.add_idle_block(2000)
        history = c.history()
        mutate(c, history, alice, bob)
        return c.audit(history)

    def overlap(c, h, alice, bob):
        h.excl[1000] = IncludedTx(None, 1000, c.blocks[1000].tree.prove(0))

    def gap(c, h, alice, bob):
        del h.excl[2000]

    def bad_deposit(c, h, alice, bob):
        mallory = c.keyring.new_signer("mallory")
        h.incl[1] = IncludedTx(make_deposit_tx(0, mallory.address), 1, c.config.empty_proof)

    def bad_inclusion(c, h, alice, bob):
        itx = h.incl[1000]
        h.incl[1000] = IncludedTx(itx.tx, 1000, conftest.flip(c.blocks[1000].tree.prove(0)))

    def broken_link(c, h, alice, bob):
        # a re-spend of the deposit after it was already consumed
        c.add_block(2000, {0: make_transfer_tx(alice, 0, 1, alice.address)})
        del h.excl[2000]
        h.incl[2000] = c.blocks[2000].prove(0)

    def forged_sig(c, h, alice, bob):
        mallory = c.keyring.new_signer("mallory")
        c.add_block(2000, {0: make_transfer_tx(mallory, 0, 1000, mallory.address)})
        del h.excl[2000]
        h.incl[2000] = c.blocks[2000].prove(0)

    def bad_exclusion(c, h, alice, bob):
        h.excl[2000] = IncludedTx(None, 2000, conftest.flip(c.blocks[2000].tree.prove(0)))

    variants = [
        (overlap, Reason.PARTITION_OVERLAP),
        (gap, Reason.PARTITION_GAP),
        (bad_deposit, Reason.PARTITION_GAP),
        (bad_inclusion, Reason.BAD_INCLUSION_PROOF),
        (broken_link, Reason.BROKEN_PARENT_LINK),
        (forged_sig, Reason.BAD_SIGNATURE),
        (bad_exclusion, Reason.BAD_EXCLUSION_PROOF),
    ]
    codes_ok = []
    for mutate, expected in variants:
        verdict = corrupted(mutate)
        codes_ok.append((not verdict) and verdict.reason is expected)

    ok = agree == 500 and all(codes_ok)
    report(
        "history-verifier-corpus",
        ok,
        f"honest_agreement={agree}/500 byzantine_codes={sum(codes_ok)}/{len(codes_ok)}",
    )


def test_history_size_scales_linearly():
    """Serialized witness volume grows linearly in blocks since deposit.
    The exclusions are built by hand from an empty tree's proof and encoded
    directly: the contract lists no block whose root is the empty-tree root,
    so this sizes each entry's framing, not a history the contract asks for."""
    config = SmtConfig(depth=64)
    keyring = Keyring()
    alice = keyring.new_signer("alice")
    sizes = {}
    checkpoints = (10, 100, 1000)
    deposit = IncludedTx(make_deposit_tx(0, alice.address), 1, config.empty_proof)
    empty = PlasmaBlock.build(0, {}, config)
    history = CoinHistory(slot=0, deposit_block=1, incl={1: deposit})
    for t in range(1, max(checkpoints) + 1):
        history.excl[t * 1000] = IncludedTx(None, t * 1000, empty.tree.prove(0))
        if t in checkpoints:
            sizes[t] = len(history.encode(config))
    ys = [sizes[t] for t in checkpoints]
    slope = statistics.linear_regression(checkpoints, ys).slope
    r2 = statistics.correlation(checkpoints, ys) ** 2
    ok = r2 > 0.99 and slope > 0
    report(
        "history-size-linear",
        ok,
        f"sizes={sizes} slope={slope:.1f}B/block r2={r2:.6f}",
    )


def test_scenarios_and_watcher_flips():
    """S1-S5 meet their scripted outcomes; with watchers off, S2-S5 assert
    the attacks succeed instead."""
    t0 = time.monotonic()
    failures = []
    for name in ("S1", "S2", "S3", "S4", "S5"):
        r = run(name)
        if not r.passed:
            failures.append(f"{name}: {r.failures}")
        r = run(name, watcher=False)
        if not r.passed:
            failures.append(f"{name} (no watcher): {r.failures}")
    # the flip is observable in the traces: watched, the thief's exit is
    # cancelled and the rightful owner withdraws; unwatched, the theft settles
    watched = [e["kind"] for e in run("S2").event_trace]
    unwatched = [e["kind"] for e in run("S2", watcher=False).event_trace]
    if "ChallengedAfter" not in watched or "ExitCancelled" in unwatched:
        failures.append("S2 watcher flip not observable")
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5
    report("scenarios", ok, f"failures={failures} elapsed={elapsed:.1f}s")


def test_fuzz_invariants():
    """10^4-step random interleavings: conservation, legal state machine,
    honest-coin safety; identical traces on identical seeds."""
    t0 = time.monotonic()
    honest_a = fuzz(10_000, seed=1)
    honest_b = fuzz(10_000, seed=1)
    byzantine = fuzz(10_000, seed=1, byzantine=True)
    elapsed = time.monotonic() - t0
    deterministic = (
        honest_a.event_trace == honest_b.event_trace
        and honest_a.bond_ledger == honest_b.bond_ledger
    )
    ok = (
        honest_a.passed
        and byzantine.passed
        and deterministic
        and elapsed < 60
    )
    report(
        "fuzz-invariants",
        ok,
        f"honest={honest_a.passed} byzantine={byzantine.passed} "
        f"deterministic={deterministic} elapsed={elapsed:.1f}s",
    )
