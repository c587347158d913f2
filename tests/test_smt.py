"""Sparse Merkle tree: oracle equivalence, proof round-trips, soundness."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasma_cash import smt
from plasma_cash.errors import (
    LeafEqualsDefault,
    MalformedEncoding,
    MalformedProof,
    SlotOutOfRange,
)
from plasma_cash.smt import (
    DEFAULT_LEAF,
    Proof,
    SmtConfig,
    SparseMerkleTree,
    hash_pair,
    verify,
)


def leaf(n: int) -> bytes:
    return hashlib.sha256(b"leaf:%d" % n).digest()


class DenseTree:
    """Brute-force oracle: materializes every node of the full tree."""

    def __init__(self, config: SmtConfig, leaves):
        level = [leaves.get(i, DEFAULT_LEAF) for i in range(config.capacity)]
        self.levels = [level]
        while len(level) > 1:
            level = [hash_pair(level[i], level[i + 1]) for i in range(0, len(level), 2)]
            self.levels.append(level)

    @property
    def root(self):
        return self.levels[-1][0]

    def prove(self, slot):
        sibs = []
        for i in range(len(self.levels) - 1):
            sibs.append(self.levels[i][(slot >> i) ^ 1])
        return Proof(tuple(sibs))


def random_leaves(rng, config, count):
    slots = rng.sample(range(config.capacity), count)
    return {s: leaf(rng.getrandbits(32)) for s in slots}


@pytest.mark.parametrize("depth", [1, 2, 4, 8])
def test_matches_dense_oracle(depth):
    rng = random.Random(depth)
    config = SmtConfig(depth=depth)
    for _ in range(50):
        leaves = random_leaves(rng, config, rng.randint(0, config.capacity))
        sparse = SparseMerkleTree(config, leaves)
        dense = DenseTree(config, leaves)
        assert sparse.root == dense.root
        for slot in range(config.capacity):
            assert sparse.prove(slot) == dense.prove(slot)


def test_empty_tree_root_is_top_default():
    for depth in (1, 8, 64):
        config = SmtConfig(depth=depth)
        assert SparseMerkleTree(config, {}).root == config.defaults[depth]


def test_default_leaf_value():
    assert DEFAULT_LEAF == hashlib.sha256(b"\x00" * 32).digest()


def test_proofs_verify_for_present_and_absent_slots():
    config = SmtConfig(depth=8)
    tree = SparseMerkleTree(config, {3: leaf(3), 200: leaf(200)})
    assert verify(3, leaf(3), tree.prove(3), tree.root, config)
    assert verify(200, leaf(200), tree.prove(200), tree.root, config)
    # non-inclusion: absent slots commit to the default marker
    assert verify(77, DEFAULT_LEAF, tree.prove(77), tree.root, config)
    # and nothing else passes off as that slot's leaf
    assert not verify(77, leaf(77), tree.prove(77), tree.root, config)


def test_perturbed_proof_fails():
    config = SmtConfig(depth=8)
    rng = random.Random(1)
    tree = SparseMerkleTree(config, random_leaves(rng, config, 40))
    proof = tree.prove(17)
    for i in range(config.depth):
        sibs = list(proof.siblings)
        sibs[i] = bytes(b ^ 1 for b in sibs[i])
        assert not verify(17, tree.leaf_at(17), Proof(tuple(sibs)), tree.root, config)
    # wrong slot reorders the fold
    assert not verify(18, tree.leaf_at(17), proof, tree.root, config)


def test_slot_bounds():
    config = SmtConfig(depth=4)
    tree = SparseMerkleTree(config, {})
    with pytest.raises(SlotOutOfRange):
        tree.prove(16)
    with pytest.raises(SlotOutOfRange):
        tree.prove(-1)
    with pytest.raises(SlotOutOfRange):
        tree.leaf_at(16)


def test_verify_rejects_out_of_range_slots():
    """Slots 5 + 256 and -251 share slot 5's low 8 bits, so without a range
    check both would fold slot 5's proof to the root."""
    config = SmtConfig(depth=8)
    tree = SparseMerkleTree(config, {5: leaf(5)})
    assert verify(5, leaf(5), tree.prove(5), tree.root, config)
    for slot in (5 + 256, -251):
        with pytest.raises(SlotOutOfRange):
            verify(slot, leaf(5), tree.prove(5), tree.root, config)


def per_level_proof(tree: SparseMerkleTree, slot: int) -> Proof:
    """Reference prover: one lookup at every level."""
    defaults = tree.config.defaults
    return Proof(tuple(
        tree._levels[i].get((slot >> i) ^ 1, defaults[i]) for i in range(tree.config.depth)
    ))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prove_matches_the_per_level_lookup(data):
    """``prove`` looks up only the levels below the split height, yet gives
    every level's sibling and the same ``top`` as a lookup at every level:
    for the empty tree, occupied slots, absent slots beside them and slots
    far outside the occupied subtree."""
    depth = data.draw(st.sampled_from([4, 16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    # leaves clustered in one 2^width-slot subtree, so the split height varies
    width = data.draw(st.integers(0, depth), label="width")
    base = data.draw(st.integers(0, config.capacity - 1), label="base") >> width << width
    offsets = data.draw(st.sets(st.integers(0, (1 << width) - 1), max_size=12), label="offsets")
    occupied = sorted(base | o for o in offsets)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in occupied})
    slots = [0, config.capacity - 1, *occupied[:4]]
    slots += data.draw(st.lists(st.integers(0, config.capacity - 1), max_size=4), label="far")
    for bit in data.draw(st.lists(st.integers(0, depth - 1), max_size=4), label="bits"):
        slots.append((occupied[0] if occupied else base) ^ (1 << bit))
    for slot in slots:
        got, want = tree.prove(slot), per_level_proof(tree, slot)
        assert got.siblings == want.siblings and got.top == want.top, slot


def test_leaf_equal_to_default_rejected():
    config = SmtConfig(depth=4)
    with pytest.raises(LeafEqualsDefault):
        SparseMerkleTree(config, {0: DEFAULT_LEAF})


def test_wrong_depth_proof_rejected():
    config = SmtConfig(depth=8)
    with pytest.raises(MalformedProof):
        verify(0, leaf(0), Proof((leaf(1),) * 7), b"\x00" * 32, config)
    with pytest.raises(MalformedProof):
        Proof((leaf(1),) * 7).encode(config)


# -- serialization: the bitfield form --


def test_compact_proof_size_formula():
    # a lone leaf at slot 0 has only default siblings: the bitfield alone
    for depth in (4, 8, 64):
        config = SmtConfig(depth=depth)
        tree = SparseMerkleTree(config, {0: leaf(0)})
        assert tree.prove(0).encode(config) == bytes(config.bitfield_size)
    config = SmtConfig(depth=64)
    rng = random.Random(2)
    tree = SparseMerkleTree(config, {rng.getrandbits(64): leaf(i) for i in range(100)})
    proof = tree.prove(next(iter(tree.leaves)))
    present = sum(sib != d for sib, d in zip(proof.siblings, config.defaults))
    encoded = proof.encode(config)
    assert len(encoded) == 8 + 32 * present
    assert bin(int.from_bytes(encoded[:8], "little")).count("1") == present


def test_proof_bytes_round_trip():
    config = SmtConfig(depth=8)
    rng = random.Random(3)
    tree = SparseMerkleTree(config, random_leaves(rng, config, 30))
    for slot in (0, 9, 255):
        proof = tree.prove(slot)
        assert Proof.decode(proof.encode(config), config) == proof


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 255), st.integers(1, 2**32), max_size=40), st.integers(0, 255))
def test_compact_expand_round_trip(leafmap, slot):
    config = SmtConfig(depth=8)
    leaves = {s: leaf(v) for s, v in leafmap.items()}
    tree = SparseMerkleTree(config, leaves)
    proof = tree.prove(slot)
    decoded = Proof.decode(proof.encode(config), config)
    assert decoded == proof
    assert verify(slot, tree.leaf_at(slot), decoded, tree.root, config)


def test_proof_decode_rejects_bad_length():
    config = SmtConfig(depth=8)
    encoded = SparseMerkleTree(config, {0: leaf(0), 1: leaf(1)}).prove(0).encode(config)
    assert len(encoded) == 1 + 32
    for data in (b"", encoded[:-1], encoded + b"\x00", encoded + leaf(9)):
        with pytest.raises(MalformedEncoding):
            Proof.decode(data, config)


def test_bitfield_mismatch_detected():
    """Each proof has one encoding: a bit whose sibling is missing, a
    spare bit past the depth, or a sent sibling equal to its level default
    does not decode."""
    config = SmtConfig(depth=4)  # 4 spare bits in the 1-byte bitfield
    sib = leaf(9)
    assert Proof.decode(b"\x01" + sib, config).siblings == (sib,) + config.defaults[1:4]
    for bad in (
        b"\x03" + sib,  # bit 1 set, its sibling missing
        b"\x11" + sib,  # bit 4 set: past the depth
        b"\x80",  # bit 7 set: past the depth
        b"\x01" + config.defaults[0],  # sent sibling is the level-0 default
        b"\x05" + sib + config.defaults[2],  # sent sibling is the level-2 default
    ):
        with pytest.raises(MalformedEncoding):
            Proof.decode(bad, config)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_proof_decode_is_canonical(data):
    """Multi-byte bitfields too: any proof round-trips, every strict prefix
    fails, and so does setting any spare bit past the depth."""
    config = SmtConfig(depth=data.draw(st.sampled_from([4, 12, 64])))
    proof = Proof(tuple(
        data.draw(st.just(d) | st.binary(min_size=32, max_size=32))
        for d in config.defaults[:config.depth]
    ))
    encoded = proof.encode(config)
    assert Proof.decode(encoded, config) == proof
    for cut in range(len(encoded)):
        with pytest.raises(MalformedEncoding):
            Proof.decode(encoded[:cut], config)
    n = config.bitfield_size
    bitfield = int.from_bytes(encoded[:n], "little")
    for bit in range(config.depth, 8 * n):
        spare = (bitfield | 1 << bit).to_bytes(n, "little")
        with pytest.raises(MalformedEncoding):
            Proof.decode(spare + encoded[n:], config)


# -- the memo of verified upper paths --


def fold(slot: int, leaf_: bytes, siblings, root: bytes) -> bool:
    """Reference verifier: hash every level, no shortcut."""
    node = leaf_
    for i, sib in enumerate(siblings):
        node = hash_pair(sib, node) if (slot >> i) & 1 else hash_pair(node, sib)
    return node == root


def test_proof_top_is_one_past_the_highest_non_default_sibling():
    config = SmtConfig(depth=64)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in range(8)})
    assert tree.prove(0).top == tree.prove(7).top == 3
    assert tree.prove(8).top == 4  # an absent slot beside the occupied subtree
    assert Proof.decode(tree.prove(0).encode(config), config).top == 3
    assert SparseMerkleTree(config, {9: leaf(9)}).prove(9).top == 0
    # equal to the defaults but not the shared objects: a higher top, same verdict
    copies = tuple(d[:16] + d[16:] for d in config.defaults[:64])
    assert Proof(copies).top == 64
    empty = SparseMerkleTree(config, {}).root
    assert verify(3, DEFAULT_LEAF, Proof(copies), empty, config, set())


def _memo_case(data):
    depth = data.draw(st.sampled_from([3, 6, 8]), label="depth")
    config = SmtConfig(depth=depth)
    cap = config.capacity
    occupied = data.draw(
        st.sets(st.integers(0, cap - 1), min_size=1, max_size=min(cap, 24)), label="occupied"
    )
    leaves = {s: leaf(s) for s in occupied}
    tree = SparseMerkleTree(config, leaves)
    slot = data.draw(st.sampled_from(sorted(occupied)), label="slot")
    # a second root whose tree differs only at the target slot
    other = SparseMerkleTree(config, {**leaves, slot: leaf(-1)})
    known = set()
    for t in (tree, other):
        for s in occupied - {slot}:
            assert verify(s, t.leaf_at(s), t.prove(s), t.root, config, known)
    return config, tree, other, slot, known


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memo_verdict_equals_the_full_fold(data):
    """Warmed with every other occupied slot's genuine proof under two
    roots, the memo never changes a verdict: not for the genuine proof, nor
    for one tampered at any level, a wrong leaf, a wrong slot or a wrong
    root."""
    config, tree, other, slot, known = _memo_case(data)
    siblings = list(tree.prove(slot).siblings)
    the_leaf, the_slot, root = tree.leaf_at(slot), slot, tree.root
    kind = data.draw(st.sampled_from(["genuine", "sibling", "leaf", "slot", "root"]), label="kind")
    if kind == "sibling":
        level = data.draw(st.integers(0, config.depth - 1), label="level")
        siblings[level] = bytes([siblings[level][0] ^ 1]) + siblings[level][1:]
    elif kind == "leaf":
        the_leaf = data.draw(st.sampled_from([DEFAULT_LEAF, leaf(-1), leaf(slot + 1)]))
    elif kind == "slot":
        the_slot = data.draw(st.integers(0, config.capacity - 1).filter(lambda s: s != slot))
    elif kind == "root":
        root = data.draw(st.sampled_from([other.root, config.defaults[config.depth]]))
    proof = Proof(tuple(siblings))
    expected = fold(the_slot, the_leaf, siblings, root)
    assert expected == (kind == "genuine")
    assert verify(the_slot, the_leaf, proof, root, config) == expected
    assert verify(the_slot, the_leaf, proof, root, config, known) == expected
    # and again, once a success may have added its own key
    assert verify(the_slot, the_leaf, proof, root, config, known) == expected


def test_memo_hit_skips_the_shared_upper_path(monkeypatch):
    """Eight coins in slots 0-7 at depth 64: the first proof hashes all 64
    levels, each later one only the 3 below its subtree; a proof whose
    upper path is tampered misses and is refused."""
    config = SmtConfig(depth=64)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in range(8)})
    calls = []

    def counted(left, right):
        calls.append(1)
        return hash_pair(left, right)

    monkeypatch.setattr(smt, "hash_pair", counted)
    known = set()
    cost = []
    for s in range(8):
        calls.clear()
        assert verify(s, leaf(s), tree.prove(s), tree.root, config, known)
        cost.append(len(calls))
    assert cost == [64] + [3] * 7 and len(known) == 1
    sibs = list(tree.prove(0).siblings)
    sibs[40] = leaf(40)
    assert not verify(0, leaf(0), Proof(tuple(sibs)), tree.root, config, known)
