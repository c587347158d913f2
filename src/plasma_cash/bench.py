"""Proof-size measurement: the encoded bitfield proofs every history and
challenge carries."""

from __future__ import annotations

import hashlib
import random
import statistics

from .smt import SmtConfig, SparseMerkleTree


def bench_compact_proofs(
    txs: int = 2378,
    depth: int = 64,
    trials: int = 1000,
    seed: int = 0,
) -> dict:
    """Fill a depth-``depth`` tree with ``txs`` random occupied slots and
    measure serialized proof sizes over ``trials`` sampled occupied slots
    (inclusions) and ``trials`` sampled empty slots (exclusions, which carry
    a neighbour when their slot shares a subtree with one coin only)."""
    config = SmtConfig(depth=depth)
    if not 0 < txs < config.capacity:
        raise ValueError(f"txs must be in [1, 2^{depth}): one slot at least stays empty")
    rng = random.Random(seed)
    slots = set()
    while len(slots) < txs:
        slots.add(rng.getrandbits(depth))
    leaves = {
        s: hashlib.sha256(b"leaf:" + s.to_bytes(8, "big")).digest() for s in slots
    }
    tree = SparseMerkleTree(config, leaves)

    population = sorted(slots)
    sizes = [len(tree.prove(rng.choice(population)).encode(config)) for _ in range(trials)]
    empty = []
    while len(empty) < trials:
        slot = rng.getrandbits(depth)
        if slot not in slots:
            empty.append(len(tree.prove(slot).encode(config)))

    return {
        "txs": txs,
        "depth": depth,
        "trials": trials,
        "seed": seed,
        "mean_compact": statistics.fmean(sizes),
        "min_compact": min(sizes),
        "max_compact": max(sizes),
        "mean_exclusion": statistics.fmean(empty),
        "min_exclusion": min(empty),
        "max_exclusion": max(empty),
    }
