"""Shared pytest hooks and proof helpers.

Acceptance tests register their PASS/FAIL verdict lines here; the terminal
summary hook replays them after the run, outside pytest's output capture,
so every verdict is visible in the run log.  ``proof_from_siblings`` and
``siblings_of`` convert between a proof and its full sibling list, one
digest per level, ``flip`` is the one way tests tamper with a proof, and
``whole`` reads exactly one encoding.
"""

from typing import List

from plasma_cash.smt import Proof, Reader, SmtConfig, _set_bits

acceptance_lines: List[str] = []

#: Each level's default digest; a tree of any depth uses a prefix of these.
DEFAULTS = SmtConfig(depth=64).defaults


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def proof_from_siblings(siblings, neighbor=None) -> Proof:
    """Reference builder: the proof of a full sibling list, leaf-adjacent
    first, sending each sibling that is not its level's default."""
    sent = [(i, sib) for i, sib in enumerate(siblings) if sib != DEFAULTS[i]]
    return Proof(sum(1 << i for i, _ in sent), tuple(sib for _, sib in sent), neighbor)


def siblings_of(proof: Proof, depth: int) -> list:
    """A proof's full sibling list: each present sibling at its set bit, the
    level's default elsewhere."""
    sibs = list(DEFAULTS[:depth])
    for i, sib in zip(_set_bits(proof.bitfield), proof.present):
        sibs[i] = sib
    return sibs


def flip(proof: Proof, level: int = 0) -> Proof:
    """The same proof with every byte of its level-``level`` sibling xored
    with 1: a default sibling becomes a sent one."""
    sibs = siblings_of(proof, max(proof.bitfield.bit_length(), level + 1))
    sibs[level] = bytes(b ^ 1 for b in sibs[level])
    return proof_from_siblings(sibs, proof.neighbor)


def whole(data: bytes, read):
    """``read(reader)`` over exactly ``data``: a short or padded input raises."""
    r = Reader(data, "test")
    value = read(r)
    r.end()
    return value
