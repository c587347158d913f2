"""Coin-history building, verification, and the valid-tip walk."""

import random
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Chain, flip
from plasma_cash.core import (
    SIG_SIZE,
    IncludedTx,
    Keyring,
    Transaction,
    make_deposit_tx,
    make_transfer_tx,
    spend_fault,
)
from plasma_cash.errors import MissingRoot
from plasma_cash.history import (
    ACCEPT,
    CoinHistory,
    Mark,
    Reason,
    RootView,
    Verdict,
    extend_history,
    find_spend,
    valid_tip,
    verify_history,
)

CONFIG = Chain.config


@pytest.fixture
def chain():
    """Deposit at 1, spends at 1000 and 3000, idle at 2000 and 4000 (slot 1
    moves there)."""
    c = Chain()
    alice, bob, carol = c.signer("alice"), c.signer("bob"), c.signer("carol")
    c.add_block(1, {0: make_deposit_tx(0, alice.address)})
    c.add_block(1000, {0: make_transfer_tx(alice, 0, 1, bob.address)})
    c.add_idle_block(2000)
    c.add_block(3000, {0: make_transfer_tx(bob, 0, 1000, carol.address)})
    c.add_idle_block(4000)
    return c


def test_honest_history_accepted(chain):
    history = chain.history(0, 1)
    assert set(history.incl) == {1000, 3000}
    assert set(history.excl) == {2000, 4000}
    assert chain.audit(history)


def partition_oracle(history, view, mark):
    """The partition fault ``verify_history`` must name, spelled out: a
    claimed block with no root is MissingRoot; then the blocks in both maps;
    then the blocks missing from and extra to the operator blocks past the
    mark.  None when the partition holds."""
    incl, excl, roots = set(history.incl), set(history.excl), view.roots
    claimed = incl | excl
    if any(blk not in roots for blk in claimed):
        return MissingRoot
    if incl & excl:
        return Reason.PARTITION_OVERLAP, f"blocks {sorted(incl & excl)}"
    required = {blk for blk in view.operator_blocks if blk > mark.block}
    if claimed != required:
        return Reason.PARTITION_GAP, f"missing={sorted(required - claimed)} extra={sorted(claimed - required)}"
    return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_partition_faults_are_the_oracles(data):
    """Random views, some listing operator blocks that have no root, random
    marks and random maps: ``verify_history`` raises MissingRoot exactly
    when the oracle does, else names its partition fault with the same
    detail, and never names one when the partition holds.  No input raises
    anything else."""
    draw = data.draw
    blocks = st.integers(0, 9)
    keyring = Keyring()
    owner = keyring.new_signer("alice").address
    spend = make_transfer_tx(keyring.new_signer("bob"), 0, 1, owner)
    operator_blocks = sorted(draw(st.sets(blocks)))
    roots = {blk: bytes([blk]) * 32 for blk in draw(st.sets(blocks))}
    view = RootView(roots, operator_blocks, CONFIG, keyring)
    deposit = draw(blocks)
    mark = draw(blocks.map(
        lambda blk: Mark(blk, IncludedTx(make_deposit_tx(0, owner), min(blk, deposit), CONFIG.empty_proof))
    ))
    listed = view.history_blocks(mark.block)
    maps = []
    for _ in range(2):
        # a random subset of the listed blocks, maybe others, in any order
        picked = draw(st.lists(st.sampled_from(listed) if listed else blocks, unique=True))
        picked += [blk for blk in draw(st.lists(blocks, max_size=2)) if blk not in picked]
        maps.append({
            blk: IncludedTx(spend if draw(st.booleans()) else None, blk, CONFIG.empty_proof) for blk in picked
        })
    history = CoinHistory(0, deposit, *maps)
    expected = partition_oracle(history, view, mark)
    if expected is MissingRoot:
        with pytest.raises(MissingRoot):
            verify_history(history, view, mark)
        return
    verdict = verify_history(history, view, mark)
    if expected is None:
        assert verdict.reason not in (Reason.PARTITION_OVERLAP, Reason.PARTITION_GAP)
    else:
        assert (verdict.reason, verdict.detail) == expected


def test_deposit_only_history_accepted():
    """A coin with no operator block past its deposit: the history past the
    deposit mark is empty and accepted."""
    c = Chain()
    alice = c.signer("alice")
    c.add_block(1, {0: make_deposit_tx(0, alice.address)})
    history = c.history(0, 1)
    assert history == CoinHistory(0, 1) and history.last_block() == 1
    assert c.audit(history)


def test_missing_root_raises(chain):
    history = chain.history(0, 1)
    history.excl[5000] = history.excl[4000]
    with pytest.raises(MissingRoot):
        chain.audit(history)


def test_partition_overlap_rejected(chain):
    history = chain.history(0, 1)
    history.excl[1000] = IncludedTx(None, 1000, chain.blocks[1000].tree.prove(0))
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.PARTITION_OVERLAP


def test_partition_gap_rejected(chain):
    history = chain.history(0, 1)
    del history.excl[2000]
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.PARTITION_GAP


def test_other_coins_deposit_blocks_are_skipped(chain):
    # block 2 is slot 1's deposit block: slot 0 cannot be in it
    chain.add_block(2, {1: make_deposit_tx(1, chain.signer("dave").address)})
    history = chain.history(0, 1)
    assert set(history.incl) == {1000, 3000}
    assert set(history.excl) == {2000, 4000}
    assert chain.audit(history)

    # block 2 proves no other slot, so the padding is built by hand
    padded = chain.history(0, 1)
    padded.excl[2] = IncludedTx(None, 2, CONFIG.empty_proof)
    verdict = chain.audit(padded)
    assert not verdict and verdict.reason is Reason.PARTITION_GAP
    assert verdict.detail == "missing=[] extra=[2]"

    # the coin's own deposit block is the mark's, so its entry is extra too
    history.incl[1] = chain.deposits[1]
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.PARTITION_GAP
    assert verdict.detail == "missing=[] extra=[1]"


def refusals(chain, entry):
    """``entry`` offered as the coin's deposit entry: the contract's rule,
    which compares it with the coin's record, and a receiver handed it in a
    history, who audits from the record and takes no deposit entry."""
    fault = chain.view().inclusion_fault(entry, 0, chain.deposits[1])
    history = chain.history(0, 1)
    history.incl[1] = entry
    return fault, chain.audit(history)


HANDED_DEPOSIT = Verdict(False, Reason.PARTITION_GAP, "missing=[] extra=[1]")
NOT_THE_DEPOSIT = "block 1: neither an operator block nor the coin's deposit entry"


def test_wrong_deposit_owner_rejected(chain):
    mallory = chain.keyring.new_signer("mallory")
    forged = IncludedTx(make_deposit_tx(0, mallory.address), 1, CONFIG.empty_proof)
    assert refusals(chain, forged) == (NOT_THE_DEPOSIT, HANDED_DEPOSIT)
    assert refusals(chain, chain.deposits[1]) == (None, HANDED_DEPOSIT)


def test_corrupt_deposit_proof_rejected(chain):
    dep = chain.deposits[1]
    assert refusals(chain, IncludedTx(dep.tx, 1, flip(dep.proof))) == (NOT_THE_DEPOSIT, HANDED_DEPOSIT)


def test_signed_deposit_entry_rejected(chain):
    """``Transaction.hash`` leaves the signature out, so a deposit tx that
    carries one hashes to the committed root; it is still refused, and a
    deposit entry has one encoding."""
    dep = chain.deposits[1]
    signed = Transaction(0, 0, dep.tx.new_owner, bytes(SIG_SIZE))
    assert signed.hash() == chain.view().roots[1]
    assert refusals(chain, IncludedTx(signed, 1, dep.proof)) == (NOT_THE_DEPOSIT, HANDED_DEPOSIT)


def test_deposit_entry_for_another_block_rejected(chain):
    # the entry filed under the deposit block claims block 5 (no root)
    dep = chain.deposits[1]
    fault, verdict = refusals(chain, IncludedTx(dep.tx, 5, dep.proof))
    assert fault == "block 5: neither an operator block nor the coin's deposit entry"
    assert verdict == HANDED_DEPOSIT


def test_corrupt_inclusion_proof_rejected(chain):
    history = chain.history(0, 1)
    itx = history.incl[1000]
    history.incl[1000] = IncludedTx(itx.tx, 1000, flip(itx.proof))
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.BAD_INCLUSION_PROOF


def test_double_spend_history_rejected(chain):
    # a second spend of the deposit included at 3000 breaks the parent chain
    alice = chain.keyring.new_signer("alice")
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(3000, {0: make_transfer_tx(alice, 0, 1, mallory.address)})
    history = chain.history(0, 1)
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.BROKEN_PARENT_LINK


def test_forged_signature_rejected(chain):
    # Mallory signs a spend of Bob's coin with her own key
    mallory = chain.keyring.new_signer("mallory")
    forged = make_transfer_tx(mallory, 0, 1000, mallory.address)
    chain.add_block(3000, {0: forged})
    chain.blocks.pop(4000)
    verdict = chain.audit(chain.history(0, 1))
    assert not verdict and verdict.reason is Reason.BAD_SIGNATURE


def test_malformed_signature_rejected(chain):
    bob = chain.keyring.new_signer("bob")
    tx = make_transfer_tx(bob, 0, 1000, bob.address)
    broken = Transaction(tx.slot, tx.parent_block, tx.new_owner, b"\x00" * 10)
    chain.add_block(3000, {0: broken})
    chain.blocks.pop(4000)
    verdict = chain.audit(chain.history(0, 1))
    assert not verdict and verdict.reason is Reason.BAD_SIGNATURE


def test_corrupt_exclusion_rejected(chain):
    history = chain.history(0, 1)
    history.excl[2000] = IncludedTx(None, 2000, flip(history.excl[2000].proof))
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.BAD_EXCLUSION_PROOF


def test_exclusion_over_occupied_slot_rejected(chain):
    # claiming the coin did not move at 1000 where it actually did
    history = chain.history(0, 1)
    del history.incl[1000]
    del history.incl[3000]  # would otherwise trip the parent link first
    history.excl[1000] = IncludedTx(None, 1000, chain.blocks[1000].tree.prove(0))
    history.excl[3000] = IncludedTx(None, 3000, chain.blocks[3000].tree.prove(0))
    verdict = chain.audit(history)
    assert not verdict and verdict.reason is Reason.BAD_EXCLUSION_PROOF


# -- serialization --


def test_history_binary_round_trip(chain):
    # another coin moves alone at 5000, so slot 0's exclusion there names it
    dave = chain.signer("dave")
    chain.add_block(5000, {1: make_transfer_tx(dave, 1, 1, dave.address)})
    history = chain.history(0, 1)
    assert history.excl[5000].proof.neighbor[0] == 1 and chain.audit(history)
    assert CoinHistory.decode(history.encode(CONFIG), CONFIG) == history


# -- valid tip and sibling filtering --


def test_valid_tip_follows_ownership_chain(chain):
    carol = chain.keyring.new_signer("carol")
    tip = valid_tip(chain.history(0, 1), chain.keyring, chain.deposits[1])
    assert tip.blk_number == 3000 and tip.tx.new_owner == carol.address


def test_valid_tip_skips_fraudulent_inclusions(chain):
    # operator includes Mallory's self-dealing forgery later on
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(5000, {0: make_transfer_tx(mallory, 0, 3000, mallory.address)})
    tip = valid_tip(chain.history(0, 1), chain.keyring, chain.deposits[1])
    assert tip.blk_number == 3000


def test_valid_tip_takes_earliest_same_parent_spend(chain):
    # Bob double-spends his 1000 inclusion again at 5000
    bob = chain.keyring.new_signer("bob")
    mallory = chain.keyring.new_signer("mallory")
    chain.add_block(5000, {0: make_transfer_tx(bob, 0, 1000, mallory.address)})
    tip = valid_tip(chain.history(0, 1), chain.keyring, chain.deposits[1])
    assert tip.blk_number == 3000  # the earlier spend of parent 1000 wins


def test_find_spend_checks_parent_signer_and_range(chain):
    alice, bob = chain.signer("alice"), chain.signer("bob")
    history = chain.history(0, 1)
    assert find_spend(history, 1, alice.address, chain.keyring).blk_number == 1000
    assert find_spend(history, 1, bob.address, chain.keyring) is None  # not the owner
    assert find_spend(history, 1000, bob.address, chain.keyring).blk_number == 3000
    assert find_spend(history, 1000, bob.address, chain.keyring, before=3000) is None
    assert find_spend(history, 2000, bob.address, chain.keyring) is None  # nothing spends 2000


def sorted_find_spend(history, parent, owner, keyring, before=None):
    """``find_spend`` spelled out as first written: the inclusions past
    ``parent`` read from the last back, filtered, then sorted by block."""
    incl = history.incl
    spends = [
        itx
        for itx in map(incl.get, takewhile(lambda blk: blk > parent, reversed(incl)))
        if itx.tx is not None
        and itx.tx.parent_block == parent
        and (before is None or itx.blk_number < before)
    ]
    for itx in sorted(spends, key=lambda i: i.blk_number):
        if spend_fault(itx.tx, parent, owner, keyring) is None:
            return itx
    return None


def sorted_valid_tip(history, keyring, tip):
    """``valid_tip`` over ``sorted_find_spend``."""
    while (spend := sorted_find_spend(history, tip.blk_number, tip.tx.new_owner, keyring)) is not None:
        tip = spend
    return tip


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_find_spend_and_valid_tip_are_the_sorted_search(data):
    """Over random logs in ascending block order, each key its entry's
    block, holding spends, same-parent double spends, spends that name their
    own or a later block, forged, malformed and unsigned spends, entries with
    no transaction and exclusions,
    ``find_spend`` (with and without a ``before`` bound) and ``valid_tip``
    (from the deposit and from any inclusion) return the very entry the
    sorted search returns."""
    draw = data.draw
    keyring = Keyring()
    signers = [keyring.new_signer(name) for name in ("alice", "bob", "carol")]
    owners = [s.address for s in signers]
    blocks = sorted(draw(st.sets(st.integers(1, 30), min_size=1, max_size=10)))
    deposit, later = blocks[0], blocks[1:]
    incl = {deposit: IncludedTx(make_deposit_tx(0, draw(st.sampled_from(owners))), deposit, CONFIG.empty_proof)}
    excl = {}
    for blk in later:
        kind = draw(st.sampled_from(["signed", "signed", "forged", "malformed", "none", "exclusion"]))
        # mostly an earlier inclusion; else any block, this one or a later one too
        parent = draw(st.sampled_from(sorted(incl)) | st.sampled_from(blocks) | st.integers(0, 31))
        signer, new_owner = draw(st.sampled_from(signers)), draw(st.sampled_from(owners))
        if kind == "exclusion":
            excl[blk] = IncludedTx(None, blk, CONFIG.empty_proof)
            continue
        if kind == "signed":
            tx = make_transfer_tx(signer, 0, parent, new_owner)
        elif kind == "forged":
            tx = Transaction(0, parent, new_owner, signer.address.id + draw(st.binary(min_size=32, max_size=32)))
        else:
            tx = Transaction(0, parent, new_owner, draw(st.sampled_from([b"", b"\x01" * (SIG_SIZE - 1)])))
        incl[blk] = IncludedTx(None if kind == "none" else tx, blk, CONFIG.empty_proof)
    history = CoinHistory(0, deposit, incl, excl)

    bounds = st.none() | st.sampled_from(blocks) | st.integers(0, 32)
    for parent in [*incl, draw(st.integers(0, 31))]:
        for owner in owners:
            before = draw(bounds)
            expected = sorted_find_spend(history, parent, owner, keyring, before)
            assert find_spend(history, parent, owner, keyring, before) is expected
    first = incl[deposit]
    assert valid_tip(history, keyring, first) is sorted_valid_tip(history, keyring, first)
    for itx in incl.values():
        if itx.tx is not None:
            assert valid_tip(history, keyring, itx) is sorted_valid_tip(history, keyring, itx)


# -- agreement with a block-replay oracle --


def test_random_honest_chains_agree_with_replay(subtests=None):
    rng = random.Random(7)
    for trial in range(60):
        c = Chain()
        signers = [c.signer(f"s{trial}-{i}") for i in range(4)]
        owner = signers[0]
        c.add_block(1, {0: make_deposit_tx(0, owner.address)})
        last = 1
        number = 1000
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.6:
                nxt = rng.choice(signers)
                c.add_block(number, {0: make_transfer_tx(owner, 0, last, nxt.address)})
                owner, last = nxt, number
            else:
                c.add_idle_block(number)
            number += 1000
        history = c.history(0, 1)
        mark = c.deposit_mark(0, 1)
        verdict = verify_history(history, c.view(), mark)
        assert verdict, f"trial {trial}: {verdict.reason} {verdict.detail}"
        tip = valid_tip(history, c.keyring, mark.tip)
        oracle_owner, oracle_block = c.replay_owner(0, 1)
        assert tip.tx.new_owner == oracle_owner
        assert tip.blk_number == oracle_block


# -- checkpointed verification agrees with the full walk --


def random_chain(seed):
    """Deposit at 1, then 2-8 blocks each holding an honest spend of slot 0
    or only slot 1's; the same seed always builds the same chain."""
    rng = random.Random(seed)
    c = Chain()
    signers = [c.signer(f"r{seed}-{i}") for i in range(3)]
    c.owners = {s.address: s for s in signers}
    owner = signers[0]
    c.add_block(1, {0: make_deposit_tx(0, owner.address)})
    last = 1
    for number in range(1000, 1000 * rng.randint(3, 9), 1000):
        if rng.random() < 0.6:
            nxt = rng.choice(signers)
            c.add_block(number, {0: make_transfer_tx(owner, 0, last, nxt.address)})
            owner, last = nxt, number
        else:
            c.add_idle_block(number)
    return c, signers[0].address


CORRUPTIONS = ("overlap", "gap", "inclusion", "parent", "signature", "exclusion")


def corrupt(chain, history, kind, blk):
    """Apply one scripted corruption at block ``blk``, in place; returns the
    reason the full verifier must give, or None (and changes nothing) when
    ``kind`` does not apply to that block."""
    if kind == "overlap":
        if blk in history.incl:
            history.excl[blk] = history.incl[blk]
        else:
            history.incl[blk] = history.excl[blk]
        return Reason.PARTITION_OVERLAP
    if kind == "gap":
        history.incl.pop(blk, None)
        history.excl.pop(blk, None)
        return Reason.PARTITION_GAP
    if kind == "inclusion" and blk in history.incl:
        itx = history.incl[blk]
        history.incl[blk] = IncludedTx(itx.tx, blk, flip(itx.proof))
        return Reason.BAD_INCLUSION_PROOF
    if kind == "exclusion" and blk in history.excl:
        history.excl[blk] = IncludedTx(None, blk, flip(history.excl[blk].proof))
        return Reason.BAD_EXCLUSION_PROOF
    if kind in ("parent", "signature") and blk in history.incl:
        # the operator commits a bad spend at blk, with valid proofs
        tx = history.incl[blk].tx
        if kind == "parent":
            parent = chain.deposits.get(tx.parent_block) or chain.witness(0, tx.parent_block)
            spender = chain.owners[parent.tx.new_owner]
            bad = make_transfer_tx(spender, 0, tx.parent_block + 1, tx.new_owner)
        else:
            bad = make_transfer_tx(chain.signer("mallory"), 0, tx.parent_block, tx.new_owner)
        chain.add_block(blk, {0: bad})
        history.incl[blk] = chain.witness(0, blk)
        return Reason.BROKEN_PARENT_LINK if kind == "parent" else Reason.BAD_SIGNATURE
    return None


def suffix(history, cut):
    """The entries past ``cut``; unlike ``CoinHistory.past`` it assumes no
    order, since a corruption may append an entry out of order."""
    return CoinHistory(
        history.slot,
        history.deposit_block,
        {blk: itx for blk, itx in history.incl.items() if blk > cut},
        {blk: itx for blk, itx in history.excl.items() if blk > cut},
    )


def test_checkpointed_verifier_agrees_with_full_walk():
    """A walk from a later mark gives the walk from the deposit mark's
    verdict over the entries past it, and does not read those before it."""
    exercised = set()
    for seed in range(60):
        rng = random.Random(f"cut-{seed}")
        chain, _ = random_chain(seed)
        first = chain.deposit_mark(0, 1)

        def verify(history, mark=first):
            return verify_history(history, chain.view(), mark)

        # verify a prefix cut at a random block, mark its tip, extend it
        cut = rng.choice(sorted(chain.deposits.keys() | chain.blocks.keys())[:-1])
        view = chain.view()
        prefix_view = RootView(
            {n: r for n, r in view.roots.items() if n <= cut},
            [n for n in view.operator_blocks if n <= cut],
            CONFIG,
            chain.keyring,
        )
        prefix = extend_history(CoinHistory(0, 1), prefix_view, chain.witness)
        assert verify_history(prefix, prefix_view, first)
        mark = Mark(prefix.last_block(), valid_tip(prefix, chain.keyring, first.tip))
        assert mark.tip == (prefix.incl[max(prefix.incl)] if prefix.incl else first.tip)
        extended = extend_history(prefix, chain.view(), chain.witness)
        assert mark.block == cut < extended.last_block()
        assert extended.past(cut) == suffix(extended, cut)
        assert verify(extended.past(cut), mark) == verify(extended) == ACCEPT

        for kind in CORRUPTIONS:
            for above in (True, False):
                chain, _ = random_chain(seed)  # undo the last corruption
                history = chain.history(0, 1)
                side = [b for b in chain.view().operator_blocks if (b > cut) == above]
                rng.shuffle(side)
                for blk in side:
                    expected = corrupt(chain, history, kind, blk)
                    if expected is not None:
                        break
                else:
                    continue
                full = verify(history)
                assert not full and full.reason is expected, (seed, kind, above)
                if above:
                    # the suffix from the mark gives the full walk's verdict
                    assert verify(suffix(history, cut), mark) == full
                else:
                    # entries at or below the mark are not read again: the
                    # suffix is accepted, a history holding them is refused
                    assert verify(suffix(history, cut), mark) == ACCEPT
                    if min(history.incl.keys() | history.excl.keys(), default=cut + 1) <= cut:
                        refused = verify(history, mark).reason
                        assert refused in (Reason.PARTITION_OVERLAP, Reason.PARTITION_GAP)
                exercised.add((kind, above))
    assert exercised == {(k, a) for k in CORRUPTIONS for a in (True, False)}


def test_resumed_verification_reads_only_roots_past_the_mark(chain):
    """Verifying from a mark checks roots, partition and proofs only past
    its block: a view that has lost the older roots still accepts the new
    entries, while the full walk cannot cover them."""
    verified = chain.history(0, 1)
    mark = Mark(verified.last_block(), verified.incl[max(verified.incl)])
    chain.add_idle_block(5000)
    history = chain.history(0, 1)
    view = chain.view()
    roots = {n: r for n, r in view.roots.items() if n > 4000}
    recent = RootView(roots, view.operator_blocks, CONFIG, chain.keyring)
    assert list(history.past(mark.block).excl) == [5000]
    assert verify_history(history.past(mark.block), recent, mark) == ACCEPT
    with pytest.raises(MissingRoot):
        verify_history(history, recent, chain.deposit_mark(0, 1))


def test_valid_tip_resumes_at_a_checkpoint(chain):
    # Bob double-spends the 1000 inclusion after Carol verified the coin up to 4000
    bob, mallory = chain.signer("bob"), chain.signer("mallory")
    verified = chain.history(0, 1)
    chain.add_block(5000, {0: make_transfer_tx(bob, 0, 1000, mallory.address)})
    history = chain.history(0, 1)
    tip = valid_tip(history, chain.keyring, verified.incl[max(verified.incl)])
    assert tip == valid_tip(history, chain.keyring, chain.deposits[1]) and tip.blk_number == 3000
