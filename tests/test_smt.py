"""Sparse Merkle tree: oracle equivalence, proof round-trips, soundness."""

import functools
import hashlib
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from conftest import (
    DenseTree,
    flip,
    fold,
    fold_root,
    lone,
    proof_from_siblings,
    reference_proof,
    set_bits,
    siblings_of,
    whole,
)
from plasma_cash import smt
from plasma_cash.core import Address, IncludedTx, PlasmaBlock, Transaction
from plasma_cash.errors import (
    BadLeaf,
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


def read_proof(data: bytes, config: SmtConfig, width: int, has_neighbor: bool) -> Proof:
    """``data`` read as exactly one proof, as a container would read it."""
    return whole(data, lambda r: Proof.read(r, config, width, has_neighbor))


def round_trip(proof: Proof, config: SmtConfig) -> Proof:
    """``proof`` encoded, then read back with the width and neighbour bit
    its container records."""
    return read_proof(proof.encode(config), config, proof.width, proof.neighbor is not None)


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
            got, want = sparse.prove(slot), dense.prove(slot)
            assert got == want, slot


def test_empty_tree_root_is_top_default():
    for depth in (1, 8, 64):
        config = SmtConfig(depth=depth)
        assert SparseMerkleTree(config, {}).root == config.defaults[depth]


@pytest.mark.parametrize("depth, count", [(8, 0), (64, 0), (8, 1), (64, 1), (8, 2), (8, 40)])
def test_every_tree_is_built_by_one_build_call(monkeypatch, depth, count):
    """Every construction runs ``_build`` exactly once, an empty tree and a
    tree of one leaf too: the tracer counts trees by wrapping it
    (``smt.SparseMerkleTree.build.calls``), so a tree built without it would
    read 0.  The root is the empty-tree root, the lone digest, or the fold
    of the leaves (the dense oracle's root)."""
    config = SmtConfig(depth=depth)
    leaves = random_leaves(random.Random(count), SmtConfig(depth=8), count)
    built = []
    build = SparseMerkleTree._build

    def counted(tree):
        built.append(tree)
        return build(tree)

    monkeypatch.setattr(SparseMerkleTree, "_build", counted)
    tree = SparseMerkleTree(config, leaves)
    assert built == [tree]
    if not leaves:
        assert tree.root == config.defaults[depth]
    elif len(leaves) == 1:
        ((slot, value),) = leaves.items()
        assert tree.root == lone(slot, value)
    else:
        assert tree.root == DenseTree(config, leaves).root


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
        assert not verify(17, tree.leaves.get(17, DEFAULT_LEAF), flip(proof, i), tree.root, config)
    # an inclusion holds for its own slot only
    for slot in tree.leaves:
        inclusion = tree.prove(slot)
        for other in range(config.capacity):
            assert verify(other, tree.leaves[slot], inclusion, tree.root, config) == (other == slot)
    # an exclusion beside a lone leaf also proves the other empty slots of
    # that leaf's subtree, but never the neighbour's own slot
    beside = [tree.prove(s) for s in range(config.capacity) if s not in tree.leaves]
    with_neighbor = [p for p in beside if p.neighbor is not None]
    assert with_neighbor
    for p in with_neighbor:
        other, other_leaf = p.neighbor
        assert not verify(other, DEFAULT_LEAF, p, tree.root, config)
        assert not verify(other, other_leaf, p, tree.root, config)


def test_slot_bounds():
    config = SmtConfig(depth=4)
    tree = SparseMerkleTree(config, {})
    with pytest.raises(SlotOutOfRange):
        tree.prove(16)
    with pytest.raises(SlotOutOfRange):
        tree.prove(-1)


@pytest.mark.parametrize("depth", [4, 64])
def test_a_leaf_outside_the_tree_is_refused(depth):
    """No tree is built with a leaf at slot ``capacity`` or -1."""
    config = SmtConfig(depth=depth)
    for slot in (config.capacity, -1):
        with pytest.raises(SlotOutOfRange):
            SparseMerkleTree(config, {slot: leaf(slot)})


def test_verify_rejects_out_of_range_slots():
    """Slots 5 + 256 and -251 share slot 5's low 8 bits, so without a range
    check both would fold slot 5's proof to the root; ``verify`` answers
    False."""
    config = SmtConfig(depth=8)
    tree = SparseMerkleTree(config, {5: leaf(5)})
    assert verify(5, leaf(5), tree.prove(5), tree.root, config)
    for slot in (5 + 256, -251):
        assert verify(slot, leaf(5), tree.prove(5), tree.root, config) is False


def per_level_proof(tree: SparseMerkleTree, slot: int) -> Proof:
    """Reference prover: every level's sibling computed from the leaves."""
    config, leaves = tree.config, tree.leaves

    @functools.lru_cache(maxsize=None)
    def node(level, index):
        slots = sorted(s for s in leaves if s >> level == index)
        if not slots:
            return config.defaults[level], slots
        if len(slots) == 1:
            return (lone(slots[0], leaves[slots[0]]) if level else leaves[slots[0]]), slots
        return hash_pair(node(level - 1, 2 * index)[0], node(level - 1, 2 * index + 1)[0]), slots

    return reference_proof(config, leaves, slot, node)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prove_matches_the_per_level_lookup(data):
    """``prove`` looks up only the levels below the split height, yet gives
    the same bitfield, siblings and neighbour as a lookup at every level:
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
        assert got == want, slot


def test_leaf_equal_to_default_rejected():
    config = SmtConfig(depth=4)
    with pytest.raises(BadLeaf):
        SparseMerkleTree(config, {0: DEFAULT_LEAF})


def test_a_short_leaf_is_a_leaf_fault_not_an_encoding_fault():
    with pytest.raises(BadLeaf) as raised:
        SparseMerkleTree(SmtConfig(depth=4), {0: b"x"})
    assert not isinstance(raised.value, MalformedEncoding)


def test_wrong_depth_proof_rejected():
    """A bit past the depth is no proof for the tree: a depth-9 proof is
    refused at depth 8, even against the root it folds to, and has no
    depth-8 encoding; nor does a stray bit at the depth, which would leave
    nothing to fold, pass a lone leaf's digest off as the root.  A bitfield whose set bits differ in
    number from the present siblings is no proof at all: it cannot be
    built."""
    config = SmtConfig(depth=8)
    deeper = SparseMerkleTree(SmtConfig(depth=9), {0: leaf(0), 256: leaf(1)})
    proof = deeper.prove(0)
    assert proof == Proof(1 << 8, (lone(256, leaf(1)),))
    assert verify(0, leaf(0), proof, deeper.root, deeper.config)
    assert verify(0, leaf(0), proof, deeper.root, config) is False
    with pytest.raises(MalformedProof):
        proof.encode(config)
    alone = SparseMerkleTree(config, {0: leaf(0)})
    assert verify(0, leaf(0), config.empty_proof, alone.root, config)
    assert verify(0, leaf(0), Proof(1 << 8, (leaf(1),)), alone.root, config) is False
    for bitfield, present in ((0b11, (leaf(1),)), (0, (leaf(1),))):
        with pytest.raises(MalformedProof):
            Proof(bitfield, present)


# -- serialization: the bitfield form --


def test_compact_proof_size_formula():
    """A proof is ``ceil(bit_length / 8)`` bitfield bytes plus 32 a sent
    sibling: nothing for a lone leaf, whose siblings are all defaults; one
    byte for slot 0 of a block of 64 consecutive slots (bits 0-5); all 8 at
    depth 64 for a slot among random ones, whose top sibling is sent."""
    for depth in (4, 8, 64):
        config = SmtConfig(depth=depth)
        tree = SparseMerkleTree(config, {0: leaf(0)})
        assert tree.prove(0).width == 0 and tree.prove(0).encode(config) == b""
    config = SmtConfig(depth=64)
    proof = SparseMerkleTree(config, {s: leaf(s) for s in range(64)}).prove(0)
    assert proof.bitfield == 0b111111 and proof.width == 1
    assert proof.encode(config) == b"\x3f" + b"".join(proof.present)
    rng = random.Random(2)
    tree = SparseMerkleTree(config, {rng.getrandbits(64): leaf(i) for i in range(100)})
    proof = tree.prove(next(iter(tree.leaves)))
    present = sum(sib != d for sib, d in zip(siblings_of(proof, 64), config.defaults))
    encoded = proof.encode(config)
    assert proof.width == config.bitfield_size == 8
    assert len(encoded) == 8 + 32 * present
    assert bin(int.from_bytes(encoded[:8], "little")).count("1") == present


def test_proof_bytes_round_trip():
    config = SmtConfig(depth=8)
    rng = random.Random(3)
    tree = SparseMerkleTree(config, random_leaves(rng, config, 30))
    for slot in (0, 9, 255):
        proof = tree.prove(slot)
        assert round_trip(proof, config) == proof


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 255), st.integers(1, 2**32), max_size=40), st.integers(0, 255))
def test_compact_expand_round_trip(leafmap, slot):
    config = SmtConfig(depth=8)
    leaves = {s: leaf(v) for s, v in leafmap.items()}
    tree = SparseMerkleTree(config, leaves)
    proof = tree.prove(slot)
    decoded = round_trip(proof, config)
    assert decoded == proof
    assert verify(slot, tree.leaves.get(slot, DEFAULT_LEAF), decoded, tree.root, config)


def test_proof_decode_rejects_bad_length():
    config = SmtConfig(depth=8)
    encoded = SparseMerkleTree(config, {0: leaf(0), 1: leaf(1)}).prove(0).encode(config)
    assert len(encoded) == 1 + 32
    for data in (b"", encoded[:-1], encoded + b"\x00", encoded + leaf(9)):
        with pytest.raises(MalformedEncoding):
            read_proof(data, config, 1, False)


def test_bitfield_mismatch_detected():
    """Each proof has one encoding: a bit whose sibling is missing, a
    spare bit past the depth, a sent sibling equal to its level default, a
    zero top byte or a width past ``bitfield_size`` does not decode."""
    config = SmtConfig(depth=4)  # 4 spare bits in the 1-byte bitfield
    sib = leaf(9)
    assert read_proof(b"\x01" + sib, config, 1, False) == Proof(1, (sib,))
    assert read_proof(b"", config, 0, False) == config.empty_proof
    for width, bad in (
        (1, b"\x03" + sib),  # bit 1 set, its sibling missing
        (1, b"\x11" + sib),  # bit 4 set: past the depth
        (1, b"\x80"),  # bit 7 set: past the depth
        (1, b"\x01" + config.defaults[0]),  # sent sibling is the level-0 default
        (1, b"\x05" + sib + config.defaults[2]),  # sent sibling is the level-2 default
        (1, b"\x00"),  # the empty bitfield has width 0, not a zero byte
        (2, b"\x01\x00" + sib),  # a zero top byte
        (2, b"\x01\x01" + sib),  # past the 1-byte bitfield
    ):
        with pytest.raises(MalformedEncoding):
            read_proof(bad, config, width, False)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_proof_decode_is_canonical(data):
    """Multi-byte bitfields too: any proof round-trips, every strict prefix
    fails, and so does setting any spare bit past the depth, in the width
    that holds it."""
    config = SmtConfig(depth=data.draw(st.sampled_from([4, 12, 64])))
    proof = proof_from_siblings([
        data.draw(st.just(d) | st.binary(min_size=32, max_size=32))
        for d in config.defaults[:config.depth]
    ])
    encoded, width = proof.encode(config), proof.width
    assert read_proof(encoded, config, width, False) == proof
    for cut in range(len(encoded)):
        with pytest.raises(MalformedEncoding):
            read_proof(encoded[:cut], config, width, False)
    assert int.from_bytes(encoded[:width], "little") == proof.bitfield
    for bit in range(config.depth, 8 * config.bitfield_size):
        spare = proof.bitfield | 1 << bit
        wide = (spare.bit_length() + 7) // 8
        with pytest.raises(MalformedEncoding):
            read_proof(spare.to_bytes(wide, "little") + encoded[width:], config, wide, False)


# -- the memo of verified upper paths --


def test_proof_top_is_one_past_the_highest_non_default_sibling():
    config = SmtConfig(depth=64)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in range(8)})
    assert tree.prove(0).bitfield.bit_length() == tree.prove(7).bitfield.bit_length() == 3
    assert tree.prove(8).bitfield.bit_length() == 4  # an absent slot beside the occupied subtree
    assert round_trip(tree.prove(0), config).bitfield.bit_length() == 3
    assert SparseMerkleTree(config, {9: leaf(9)}).prove(9).bitfield == 0
    # every default sent: the empty tree's fold, but no proof sends a default
    empty = SparseMerkleTree(config, {}).root
    assert fold(3, DEFAULT_LEAF, config.defaults[:64], empty)
    with pytest.raises(MalformedProof):
        Proof((1 << 64) - 1, config.defaults[:64])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_verify_refuses_a_sent_default(data):
    """A proof that also sends a default at a level between two of its set
    bits, or above them, would fold as the genuine one, but it cannot be
    built, so neither ``encode`` nor ``verify`` ever sees it."""
    config, tree, slots = clustered_tree(data, max_leaves=8)
    known = set()
    for slot in slots:
        proof = tree.prove(slot)
        low = next(set_bits(proof.bitfield), config.depth)
        clear = [i for i in range(low + 1, config.depth) if not proof.bitfield >> i & 1]
        if not clear:
            continue
        level = data.draw(st.sampled_from(clear), label="level")
        sibs = dict(zip(set_bits(proof.bitfield), proof.present))
        sibs[level] = config.defaults[level]
        leaf = tree.leaves.get(slot, DEFAULT_LEAF)
        assert fold(slot, leaf, siblings_of(proof, config.depth), tree.root, proof.neighbor)
        assert verify(slot, leaf, proof, tree.root, config, known)
        with pytest.raises(MalformedProof):
            Proof(proof.bitfield | 1 << level, tuple(sib for _, sib in sorted(sibs.items())), proof.neighbor)


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
            assert verify(s, t.leaves.get(s, DEFAULT_LEAF), t.prove(s), t.root, config, known)
    return config, tree, other, slot, known


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_memo_verdict_equals_the_full_fold(data):
    """Warmed with every other occupied slot's genuine proof under two
    roots, the memo never changes a verdict: not for the genuine proof, nor
    for one tampered at any level, a wrong leaf, a wrong slot or a wrong
    root."""
    config, tree, other, slot, known = _memo_case(data)
    siblings = siblings_of(tree.prove(slot), config.depth)
    the_leaf, the_slot, root = tree.leaves.get(slot, DEFAULT_LEAF), slot, tree.root
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
    proof = proof_from_siblings(siblings)
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
    sibs = siblings_of(tree.prove(0), 64)
    sibs[40] = leaf(40)
    assert not verify(0, leaf(0), proof_from_siblings(sibs), tree.root, config, known)


# -- lone leaves and neighbours --


def clustered_tree(data, max_leaves=2):
    """A tree at depth 4, 16 or 64 of 0 to ``max_leaves`` leaves inside one
    small subtree, and slots to probe: the occupied ones, slots one bit away
    from them, the subtree's first slot and one anywhere."""
    depth = data.draw(st.sampled_from([4, 16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    width = data.draw(st.integers(0, min(depth, 6)), label="width")
    base = data.draw(st.integers(0, config.capacity - 1), label="base") >> width << width
    offsets = data.draw(
        st.sets(st.integers(0, (1 << width) - 1), max_size=max_leaves), label="offsets"
    )
    tree = SparseMerkleTree(config, {base | o: leaf(base | o) for o in offsets})
    slots = {base, *tree.leaves, data.draw(st.integers(0, config.capacity - 1), label="far")}
    for bit in data.draw(st.lists(st.integers(0, depth - 1), max_size=3), label="bits"):
        slots.add((min(tree.leaves) if tree.leaves else base) ^ (1 << bit))
    return config, tree, sorted(slots)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_no_slot_opens_to_two_values(data):
    """Every proof the tree gives, each also with its neighbour dropped or
    replaced by any leaf of the tree, read at every probed slot: a proof
    that verifies commits the slot's true value, so no slot has both an
    inclusion and an exclusion under one root."""
    config, tree, slots = clustered_tree(data)
    proofs = []
    for slot in slots:
        proof = tree.prove(slot)
        proofs += [proof, replace(proof, neighbor=None)]
        proofs += [replace(proof, neighbor=item) for item in tree.leaves.items()]
    values = [DEFAULT_LEAF, *tree.leaves.values()]
    for slot in slots:
        opened = {v for v in values for p in proofs if verify(slot, v, p, tree.root, config)}
        assert opened == {tree.leaves.get(slot, DEFAULT_LEAF)}, slot


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_wrong_neighbor_is_refused(data):
    """An exclusion beside a lone leaf verifies with its own neighbour only:
    not with the slot itself, a slot outside the slot's subtree at ``low``,
    one at or past the capacity, a wrong leaf, or another slot of the
    subtree; a short leaf or a negative slot cannot be built."""
    config, tree, slots = clustered_tree(data, max_leaves=2)
    for slot in slots:
        proof = tree.prove(slot)
        if proof.neighbor is None:
            continue
        other, other_leaf = proof.neighbor
        low = next(set_bits(proof.bitfield), config.depth)
        assert verify(slot, DEFAULT_LEAF, proof, tree.root, config)
        for unbuilt in ((other, other_leaf[:31]), (-1, other_leaf)):
            with pytest.raises(MalformedProof):
                replace(proof, neighbor=unbuilt)
        wrong = [(slot, other_leaf), (other, leaf(-1)), (other, DEFAULT_LEAF),
                 (config.capacity, other_leaf), (config.capacity + other, other_leaf)]
        wrong += [(other ^ (1 << bit), other_leaf) for bit in range(low, config.depth)]
        first = (slot >> low) << low
        wrong += [(s, other_leaf) for s in range(first, first + min(10, 1 << low))
                  if s not in (slot, other)]
        for neighbor in wrong:
            assert not verify(slot, DEFAULT_LEAF, replace(proof, neighbor=neighbor), tree.root, config)
            assert not fold(slot, DEFAULT_LEAF, siblings_of(proof, config.depth), tree.root, neighbor)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_neighbor_added_or_removed_is_refused(data):
    """A neighbour on an inclusion is refused, whichever leaf it names; an
    exclusion stripped of its neighbour, or given the neighbour's digest as
    a sibling in its place (the fold of a subtree of two), is refused."""
    config, tree, slots = clustered_tree(data)
    for slot in slots:
        proof = tree.prove(slot)
        if slot in tree.leaves:
            for item in [*tree.leaves.items(), (slot ^ 1, leaf(-1))]:
                assert not verify(slot, tree.leaves[slot], replace(proof, neighbor=item), tree.root, config)
        elif proof.neighbor is not None:
            other, other_leaf = proof.neighbor
            assert not verify(slot, DEFAULT_LEAF, replace(proof, neighbor=None), tree.root, config)
            sibs = siblings_of(proof, config.depth)
            level = (slot ^ other).bit_length() - 1
            sibs[level] = lone(other, other_leaf) if level else other_leaf
            assert not verify(slot, DEFAULT_LEAF, proof_from_siblings(sibs), tree.root, config)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_proof_decode_takes_one_neighbor_inside_the_tree(data):
    """Read with the neighbour flag, the tail after the siblings is one
    neighbour of ``bitfield_size + 32`` bytes whose slot is inside the tree
    (here after a bitfield of width 0);
    any other length, or a slot at or past the capacity, does not read, and
    without the flag a neighbour is trailing bytes."""
    config = SmtConfig(depth=data.draw(st.sampled_from([4, 12, 16, 64]), label="depth"))
    size = config.bitfield_size
    slot = data.draw(st.integers(0, config.capacity - 1), label="slot")
    tree = SparseMerkleTree(config, {slot: leaf(slot)})
    other = slot ^ 1
    proof = tree.prove(other)
    assert proof.neighbor == (slot, leaf(slot))
    encoded = proof.encode(config)
    assert proof.width == 0 and len(encoded) == size + 32
    decoded = read_proof(encoded, config, 0, True)
    assert decoded == proof and decoded.bitfield == 0
    for cut in range(1, size + 33):
        with pytest.raises(MalformedEncoding):
            read_proof(encoded[:-cut], config, 0, True)
    for extra in (b"\x00", leaf(1), bytes(size + 33)):
        with pytest.raises(MalformedEncoding):
            read_proof(encoded + extra, config, 0, True)
    with pytest.raises(MalformedEncoding):
        read_proof(encoded, config, 0, False)
    # at depths 4 and 12 the slot bytes can name a slot past the tree
    for past in (config.capacity, (1 << 8 * size) - 1):
        if config.capacity <= past < 1 << 8 * size:
            with pytest.raises(MalformedEncoding):
                read_proof(past.to_bytes(size, "big") + leaf(slot), config, 0, True)


def test_digests_of_another_length_are_refused():
    """Leaves are any 32 bytes, so they can be chosen to splice the 40-byte
    lone form and the 64-byte internal form together; a proof whose sibling
    or neighbour leaf is not 32 bytes cannot be built, so neither splice
    passes."""
    config = SmtConfig(depth=8)
    # slot 1 is empty; an 8-byte level-0 sibling naming slot 0 would fold
    # an inclusion of slot 0's leaf at slot 1 to slot 0's lone digest
    tree = SparseMerkleTree(config, {0: leaf(0), 2: leaf(2)})
    sibs = siblings_of(tree.prove(0), config.depth)
    sibs[0] = (0).to_bytes(8, "big")
    assert fold(1, leaf(0), sibs, tree.root)
    with pytest.raises(MalformedProof):
        proof_from_siblings(sibs)
    # slot 0 is occupied; a 56-byte neighbour leaf would pass the internal
    # node over slots 0 and 1 off as the lone digest of slot 1
    head = (1).to_bytes(8, "big") + bytes(24)
    tree = SparseMerkleTree(config, {0: head, 1: leaf(1), 2: leaf(2)})
    sibs = siblings_of(tree.prove(0), config.depth)
    sibs[0] = config.defaults[0]
    neighbor = (1, head[8:] + leaf(1))
    assert fold(0, DEFAULT_LEAF, sibs, tree.root, neighbor)
    with pytest.raises(MalformedProof):
        proof_from_siblings(sibs, neighbor)


def test_a_one_leaf_tree_costs_one_hash(monkeypatch):
    """A tree of one leaf at depth 64 hashes once to build, and each of its
    proofs, the inclusion and an exclusion beside it, once to check."""
    config = SmtConfig(depth=64)
    calls = []

    def counted(left, right):
        calls.append(len(left + right))
        return hash_pair(left, right)

    monkeypatch.setattr(smt, "hash_pair", counted)
    tree = SparseMerkleTree(config, {5: leaf(5)})
    assert tree.root == lone(5, leaf(5)) and calls == [40]
    for slot, value in ((5, leaf(5)), (2**63, DEFAULT_LEAF)):
        calls.clear()
        assert verify(slot, value, tree.prove(slot), tree.root, config)
        assert calls == [40]


def test_a_tree_of_lone_leaves_costs_its_closed_form_to_build(monkeypatch):
    """In a tree of slots 0, 2^a and 2^b (0 < a < b) at depth d, no subtree
    of height a or less holds two leaves.  Each leaf is lone until it meets
    another node, above level 0, so its lone digest is hashed once: 3
    hashes of 8 + 32 bytes.  Slots 0 and 2^a meet at level a, so every
    level from a + 1 up to the root holds one node of two or more leaves,
    one 64-byte hash each: d - a.  At a = 10, b = 20, d = 64 that is
    3 + 54 = 57 hashes, all through ``smt.hash_pair`` looked up at build
    time."""
    a, b, depth = 10, 20, 64
    slots = (0, 1 << a, 1 << b)
    leaves = {slot: leaf(slot) for slot in slots}
    # the root by hand: the pair meets at level a, the third leaf at level b
    node = hash_pair(lone(slots[0], leaves[slots[0]]), lone(slots[1], leaves[slots[1]]))
    for i in range(a + 1, depth):
        right = lone(slots[2], leaves[slots[2]]) if i == b else smt.DEFAULTS[i]
        node = hash_pair(node, right)
    calls = []

    def counted(left, right):
        calls.append(len(left + right))
        return hash_pair(left, right)

    monkeypatch.setattr(smt, "hash_pair", counted)
    tree = SparseMerkleTree(SmtConfig(depth=depth), leaves)
    assert tree.root == node
    assert calls.count(40) == len(slots) and calls.count(64) == depth - a
    assert len(calls) == len(slots) + depth - a == 57


@pytest.mark.parametrize("depth", [16, 64])
@pytest.mark.parametrize("k", [1, 2, 5, 6, 64])
def test_verify_costs_its_closed_form(monkeypatch, k, depth):
    """``k`` coins in slots 0 to k - 1 fill a subtree of height
    ``h = ceil(log2 k)``.  The inclusion of slot 0 folds from its leaf
    through h present siblings, then the ``depth - h`` default levels up to
    the root.  The exclusion of slot k, the first empty one, folds from its
    lowest present sibling, at level ``low``, up to h, then the default
    levels above:

    - k = 2^h: slot k lies just past the subtree, which is its one present
      sibling, at h, folded from that level's default;
    - k even: its present siblings are k's set bits, the lowest full of
      coins, so ``low = tz(k)``, folded from that level's default;
    - k odd: coin k - 1 is alone beside it up to the lowest set bit of
      k - 1, its neighbour, whose lone digest costs one hash: ``low = tz(k - 1)``.

    A memo hit skips the default levels above h, and for k = 2^h those
    above h + 1.  A one-coin tree commits its lone digest, and each proof
    costs that one hash, memo or not.  Each proof is counted with a fresh
    memo, then again with that memo."""
    h = (k - 1).bit_length()
    tz = (k & -k).bit_length() - 1
    if k == 1:
        inclusion = exclusion = (1, 1)
    elif k == 1 << h:
        inclusion, exclusion = (depth, h), (depth - h, 1)
    elif k % 2 == 0:
        inclusion, exclusion = (depth, h), (depth - tz, h - tz)
    else:
        low = ((k - 1) & -(k - 1)).bit_length() - 1
        inclusion, exclusion = (depth, h), (1 + depth - low, 1 + h - low)
    config = SmtConfig(depth=depth)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in range(k)})
    calls = []

    def counted(left, right):
        calls.append(1)
        return hash_pair(left, right)

    monkeypatch.setattr(smt, "hash_pair", counted)
    for slot, value, expected in ((0, leaf(0), inclusion), (k, DEFAULT_LEAF, exclusion)):
        known, cost = set(), []
        for _ in range(2):
            calls.clear()
            assert verify(slot, value, tree.prove(slot), tree.root, config, known)
            cost.append(len(calls))
        assert tuple(cost) == expected, (slot, k, depth)
        assert len(known) == (k > 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_memo_verdict_equals_the_full_fold_on_exclusions(data):
    """Warmed with every occupied slot's proof, the memo gives the full
    fold's verdict for an exclusion, with or without a neighbour, genuine or
    with a sibling, the neighbour or the root tampered."""
    config, tree, slots = clustered_tree(data, max_leaves=4)
    known = set()
    for s in tree.leaves:
        assert verify(s, tree.leaves[s], tree.prove(s), tree.root, config, known)
    slot = data.draw(st.sampled_from(slots), label="slot")
    proof = tree.prove(slot)
    siblings, neighbor, root = siblings_of(proof, config.depth), proof.neighbor, tree.root
    kind = data.draw(st.sampled_from(["genuine", "sibling", "neighbor", "root"]), label="kind")
    if kind == "sibling":
        level = data.draw(st.integers(0, config.depth - 1), label="level")
        siblings[level] = bytes([siblings[level][0] ^ 1]) + siblings[level][1:]
    elif kind == "neighbor":
        neighbor = data.draw(st.sampled_from([None, *tree.leaves.items(), (slot ^ 1, leaf(-1))]))
    elif kind == "root":
        root = config.defaults[config.depth]
    value = tree.leaves.get(slot, DEFAULT_LEAF)
    expected = fold(slot, value, siblings, root, neighbor)
    tampered = proof_from_siblings(siblings, neighbor)
    assert verify(slot, value, tampered, root, config) == expected
    assert verify(slot, value, tampered, root, config, known) == expected
    assert verify(slot, value, tampered, root, config, known) == expected
    if kind == "genuine":
        assert expected


def hashed(run):
    """``run()`` and the ``hash_pair`` calls it made, argument pairs in
    order, in ``smt`` and in the reference fold, whose lone digest counts as
    the pair it hashes."""
    calls = []

    def record(left, right):
        calls.append((left, right))
        return hash_pair(left, right)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smt, "hash_pair", record)
        patch.setattr(conftest, "hash_pair", record)
        patch.setattr(conftest, "lone", lambda slot, value: record(slot.to_bytes(8, "big"), value))
        return run(), calls


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verify_makes_the_reference_folds_hashes(data):
    """Trees of random occupancy at depths 16 and 64, one subtree of up to 64
    slots either full (every inclusion sends a full run of siblings) or
    partly filled (gapped bitfields): every probed slot's proof, genuine,
    with one level's sibling flipped, and without its neighbour.  With no
    memo, ``verify`` makes exactly the ``hash_pair`` calls of the reference
    fold, the same pairs in the same order, and returns its verdict; with a
    memo warmed by every occupied slot, the same verdict.  A fold that
    skips, adds or reorders a hash fails here."""
    depth = data.draw(st.sampled_from([16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    width = data.draw(st.integers(0, 6), label="width")
    base = data.draw(st.integers(0, config.capacity - 1), label="base") >> width << width
    every = range(1 << width)
    if data.draw(st.booleans(), label="full"):
        offsets = set(every)
    else:
        offsets = data.draw(st.sets(st.sampled_from(every), max_size=len(every)), label="offsets")
    tree = SparseMerkleTree(config, {base | o: leaf(base | o) for o in offsets})
    known = set()
    for s, value in tree.leaves.items():
        assert verify(s, value, tree.prove(s), tree.root, config, known)
    anchor = min(tree.leaves, default=base)
    slots = {base, *sorted(tree.leaves)[:4], data.draw(st.integers(0, config.capacity - 1), label="far")}
    bits = data.draw(st.lists(st.integers(0, depth - 1), max_size=3), label="bits")
    slots.update(anchor ^ 1 << bit for bit in bits)
    for slot in sorted(slots):
        proof = tree.prove(slot)
        value = tree.leaves.get(slot, DEFAULT_LEAF)
        assert fold(slot, value, siblings_of(proof, depth), tree.root, proof.neighbor)
        level = data.draw(st.integers(0, depth - 1), label="level")
        for offered in (proof, flip(proof, level), replace(proof, neighbor=None)):
            siblings = siblings_of(offered, depth)
            expected, folded = hashed(lambda: fold(slot, value, siblings, tree.root, offered.neighbor))
            verdict, made = hashed(lambda: verify(slot, value, offered, tree.root, config))
            assert (verdict, made) == (expected, folded), (slot, offered.bitfield)
            assert verify(slot, value, offered, tree.root, config, known) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_proofs_match_the_per_level_lookup_on_every_call(data):
    """Every slot's proof, asked for the first time and again, in any
    order, equals the per-level reference, bitfield, siblings and neighbour,
    shared empty proofs included."""
    depth = data.draw(st.sampled_from([4, 16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    width = data.draw(st.integers(0, depth), label="width")
    base = data.draw(st.integers(0, config.capacity - 1), label="base") >> width << width
    offsets = data.draw(st.sets(st.integers(0, (1 << width) - 1), max_size=6), label="offsets")
    occupied = sorted(base | o for o in offsets)
    tree = SparseMerkleTree(config, {s: leaf(s) for s in occupied})
    if depth == 4:
        slots = list(range(config.capacity))
    else:
        anchor = occupied[0] if occupied else base
        slots = [*occupied, *(anchor ^ (1 << bit) for bit in range(depth))]
        slots += data.draw(st.lists(st.integers(0, config.capacity - 1), max_size=4), label="far")
    order = data.draw(st.permutations(slots + slots), label="order")
    for slot in order:
        got, want = tree.prove(slot), per_level_proof(tree, slot)
        assert got == want, slot


def test_fixed_shapes_share_the_empty_proof():
    """The empty tree and a one-leaf tree's own slot give the config's
    empty proof; every other slot of a one-leaf tree one exclusion naming
    the leaf; and in a larger tree every slot that leaves the occupied
    path at one height above the split one proof, another per height."""
    config = SmtConfig(depth=64)
    empty = SparseMerkleTree(config, {})
    assert empty.prove(0) is empty.prove(2**64 - 1) is config.empty_proof
    one = SparseMerkleTree(config, {5: leaf(5)})
    assert one.prove(5) is config.empty_proof
    beside = one.prove(4)
    for slot in (4, 7, 2**63):
        proof = one.prove(slot)
        assert proof is beside
        assert proof.neighbor == (5, leaf(5)) and proof == per_level_proof(one, slot)
    two = SparseMerkleTree(config, {4: leaf(4), 5: leaf(5)})  # split height 1
    by_height = {}
    for slot in (6, 7, 0, 3, 8, 15, 2**63, 2**64 - 1):
        proof = two.prove(slot)
        assert proof is by_height.setdefault((slot ^ 4).bit_length() - 1, proof)
        assert proof == per_level_proof(two, slot) and proof.bitfield == 1 << (slot ^ 4).bit_length() - 1
    assert sorted(by_height) == [1, 2, 3, 63]
    assert len({id(p) for p in by_height.values()}) == 4
    assert two.prove(4) is not two.prove(4)  # inclusions are built on each call


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_block_witnesses_share_only_what_the_shape_fixes(data):
    """``PlasmaBlock.prove`` gives every slot the entry of the per-level
    reference proof, which verifies there, and an exclusion never verifies
    at an occupied slot.  Each shape the tree fixes is one object per block:
    one entry for every slot of the empty tree, one for every other slot of
    a one-leaf tree, one per height at or above the split; every other
    entry is built on each request, and the block caches only the shared
    entries, each of which a later request gets again."""
    depth = data.draw(st.sampled_from([4, 16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    if data.draw(st.booleans(), label="clustered"):
        width = data.draw(st.integers(0, min(depth, 6)), label="width")
        base = data.draw(st.integers(0, config.capacity - 1), label="base") >> width << width
        offsets = data.draw(st.sets(st.integers(0, (1 << width) - 1), max_size=3), label="offsets")
        occupied = sorted(base | o for o in offsets)
    else:
        occupied = sorted(data.draw(st.sets(st.integers(0, config.capacity - 1), max_size=3), label="spread"))
    owner = Address(bytes(20))
    block = PlasmaBlock.build(1000, {s: Transaction(s, 1, owner) for s in occupied}, config)
    anchor = occupied[0] if occupied else None
    split = max(((s ^ anchor).bit_length() for s in occupied), default=0)
    if depth == 4:
        slots = list(range(config.capacity))
    else:
        near = anchor if occupied else 0
        slots = [*occupied, *(near ^ (1 << bit) for bit in range(depth))]
        slots += [near ^ (3 << bit) for bit in range(depth - 1)]
        slots += data.draw(st.lists(st.integers(0, config.capacity - 1), max_size=4), label="far")
    shared = {}
    for slot in data.draw(st.permutations(slots + slots), label="order"):
        itx, want = block.prove(slot), per_level_proof(block.tree, slot)
        tx = block.txs.get(slot)
        assert itx == IncludedTx(tx, 1000, want)
        assert verify(slot, DEFAULT_LEAF if tx is None else tx.hash(), itx.proof, block.root, config)
        if tx is not None:
            continue
        if anchor is not None:
            assert not verify(anchor, DEFAULT_LEAF, itx.proof, block.root, config)
        high = split if anchor is None else (slot ^ anchor).bit_length() - 1
        if high >= split:
            # the empty tree and a one-leaf tree have one shape, other trees one per height
            assert itx is shared.setdefault(high if split else "all", itx), slot
        else:
            assert itx is not block.prove(slot), slot
    assert len({id(itx) for itx in shared.values()}) == len(shared)
    assert sorted(map(id, block._shared.values())) == sorted(map(id, shared.values()))
    if len(occupied) < 2 and len(slots) > len(occupied):
        assert list(shared) == ["all"]


def test_config_constants_are_set_once_from_the_depth():
    """For every depth the four constants equal their formulas, are the
    same objects for equal configs (the defaults one chain for every depth),
    and only ``depth`` is a dataclass field: equality, hash and ``repr`` see
    nothing else."""
    assert [f.name for f in fields(SmtConfig)] == ["depth"]
    chain = [DEFAULT_LEAF]
    for depth in range(1, 65):
        chain.append(hash_pair(chain[-1], chain[-1]))
        config, twin = SmtConfig(depth=depth), SmtConfig(depth=depth)
        assert config.capacity == 2**depth and config.bitfield_size == -(-depth // 8)
        assert config.defaults[:depth + 1] == tuple(chain)
        assert config.defaults is twin.defaults is smt.DEFAULTS
        empty = config.empty_proof
        assert empty == proof_from_siblings(chain[:depth]) == Proof(0, ())
        assert empty is twin.empty_proof
        assert config == twin and hash(config) == hash(twin) and repr(config) == f"SmtConfig(depth={depth})"
        assert config != SmtConfig(depth=depth % 64 + 1)
    assert smt.DEFAULTS == tuple(chain)


def test_proof_encode_refuses_what_decode_refuses():
    """The two faults that depend on the depth, a bit at or past it and a
    neighbour slot past the tree, have no encoding that reads back: encode
    raises MalformedProof, and verify answers False."""
    config = SmtConfig(depth=4)
    sib = leaf(9)
    bad = [
        Proof(1 << 4, (sib,)),  # past the depth, inside the 1-byte bitfield
        Proof(1 << 8, (sib,)),  # past the bitfield's bytes too
        Proof(1 << 63, (sib,)),
    ]
    bad += [Proof(0, (), (n, leaf(0))) for n in (16, 256, 2**64)]
    for proof in bad:
        with pytest.raises(MalformedProof):
            proof.encode(config)
        assert verify(3, DEFAULT_LEAF, proof, config.defaults[4], config) is False
    for good in (Proof(0, (), (15, leaf(0))), Proof(0b101, (sib, leaf(10)))):
        assert round_trip(good, config) == good


@pytest.mark.parametrize("bitfield, present, neighbor", [
    pytest.param(-1, (), None, id="negative bitfield"),
    pytest.param(1 << 64, (leaf(9),), None, id="bit 64"),
    pytest.param(1 << 70 | 1, (leaf(9), leaf(10)), None, id="bit 70"),
    pytest.param(0b11, (leaf(9),), None, id="fewer siblings than set bits"),
    pytest.param(0b1, (leaf(9), leaf(10)), None, id="more siblings than set bits"),
    pytest.param(0, (leaf(9),), None, id="a sibling and no bit"),
    pytest.param(0b1, (leaf(9)[:31],), None, id="short sibling"),
    pytest.param(0b1, (leaf(9) + b"\x00",), None, id="long sibling"),
    pytest.param(0b1, (DEFAULT_LEAF,), None, id="level-0 default sent"),
    pytest.param(0b101, (leaf(9), smt.DEFAULTS[2]), None, id="level-2 default sent"),
    pytest.param(1 << 63, (smt.DEFAULTS[63],), None, id="level-63 default sent"),
    pytest.param(0, (), (-1, leaf(0)), id="negative neighbour slot"),
    pytest.param(0, (), (3, leaf(0)[:31]), id="short neighbour leaf"),
    pytest.param(0, (), (3, bytes(24) + leaf(0)), id="56-byte neighbour leaf"),
])
def test_a_proof_refuses_each_malformed_field_when_built(bitfield, present, neighbor):
    """What no tree of any depth can send is refused by the constructor
    with MalformedProof, a kind of MalformedEncoding, so a reader that
    meets it raises MalformedEncoding."""
    assert issubclass(MalformedProof, MalformedEncoding)
    with pytest.raises(MalformedProof):
        Proof(bitfield, present, neighbor)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verify_answers_every_input_with_a_bool(data):
    """For any proof that can be built, any int slot (inside the tree, -1,
    the capacity, 2^64 and past it), any root, at depths 1, 4, 16 and 64,
    ``verify`` raises nothing and answers a bool, with no memo, a fresh one
    and the same one again: the reference fold's verdict for a slot inside
    the tree and a proof whose bits are below the depth, False otherwise.
    The root is drawn at random or as the one the fold reaches from the
    slot's residue mod the capacity, with the proof cut to the depth or
    taken whole, so True answers, slots that alias one inside the tree and
    bits past the depth that would fold to the root all occur."""
    depth = data.draw(st.sampled_from([1, 4, 16, 64]), label="depth")
    config = SmtConfig(depth=depth)
    cap = config.capacity
    bits = st.sets(st.integers(0, depth - 1), max_size=6) | st.sets(st.integers(0, 63), max_size=6)
    bitfield = sum(1 << i for i in data.draw(bits, label="bits"))
    present = tuple(
        data.draw(st.binary(min_size=32, max_size=32).filter(lambda b, i=i: b != smt.DEFAULTS[i]))
        for i in set_bits(bitfield)
    )
    slot = data.draw(
        st.integers(0, cap - 1) | st.sampled_from([-1, cap, 2**64, 2**64 + 1, 2**80])
        | st.integers(-(2**70), 2**70),
        label="slot",
    )
    low = min(set_bits(bitfield), default=depth)
    near = st.integers(0, (1 << min(low, depth)) - 1).map(lambda k: slot % cap ^ k)
    neighbor = data.draw(
        st.none() | st.tuples(near | st.integers(0, 2**66), st.binary(min_size=32, max_size=32)),
        label="neighbor",
    )
    proof = Proof(bitfield, present, neighbor)
    value = data.draw(st.sampled_from([DEFAULT_LEAF, leaf(slot)]), label="value")
    fits = not bitfield >> depth
    full = siblings_of(proof, 64)
    roots = [data.draw(st.binary(min_size=32, max_size=32), label="random root")]
    for height in {depth, max(depth, bitfield.bit_length())}:  # the proof cut to the depth, or whole
        reached = fold_root(slot % cap, value, full[:height], neighbor)
        roots += [reached] if reached is not None else []
    root = data.draw(st.sampled_from(roots), label="root")
    expected = 0 <= slot < cap and fits and fold(slot, value, full[:depth], root, neighbor)
    known = set()
    for memo in (None, known, known):
        assert verify(slot, value, proof, root, config, memo) is expected
