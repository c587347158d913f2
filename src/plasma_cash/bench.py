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
    measure serialized proof sizes over ``trials`` sampled occupied slots."""
    config = SmtConfig(depth=depth)
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

    return {
        "txs": txs,
        "depth": depth,
        "trials": trials,
        "seed": seed,
        "mean_compact": statistics.fmean(sizes),
        "min_compact": min(sizes),
        "max_compact": max(sizes),
    }
