"""Span tracer that wraps the simulator's public functions from outside.

Nothing in ``src/`` knows about it: ``Tracer.install`` replaces each listed
function on its class or module, and on every module that imported it by
name, with a wrapper that records a span (name, parent span, start, end) or,
for the per-hash hot paths, only a call count.  Spans stay in flat arrays in
memory until ``write_spans`` dumps them once at exit.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _module(name: str):
    return sys.modules["plasma_cash." + name]


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self._undo: List[Tuple[object, str, object]] = []
        self._skip: frozenset = frozenset()  # layers left unwrapped

    # -- wrappers --

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``observe(tracer, args,
        result)`` runs after a call that returned."""
        nid = self._id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, errors, counts = self._stack, self.errors, self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` with a call counter only (for per-hash hot paths).
        Calls made directly inside a span named ``<span>`` also count as
        ``<name>@<span>``."""
        counts, stack, span_name, names = self.counts, self._stack, self.span_name, self.names

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[name + "@" + names[span_name[stack[-1]]]] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, observe=None, count_only=False):
        if name.split(".", 1)[0] in self._skip:
            return
        raw = cls.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self.counted(name, fn) if count_only else self.spanned(name, fn, observe)
        self._set(cls, attr, classmethod(wrapped) if is_classmethod else wrapped)

    def patch_function(self, module: str, attr: str, name: str, observe=None, count_only=False):
        """Wrap a module-level function everywhere it is looked up: its own
        module and every package module that imported it by name."""
        if name.split(".", 1)[0] in self._skip:
            return
        fn = getattr(_module(module), attr)
        wrapped = self.counted(name, fn) if count_only else self.spanned(name, fn, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "plasma_cash" or mod_name.startswith("plasma_cash."):
                if mod.__dict__.get(attr) is fn:
                    self._set(mod, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self, counters: bool = True, skip=()):
        """Wrap the public functions of every layer (see README.md) but those
        named in ``skip``.  With ``counters`` off, the per-hash functions are
        left unwrapped, so span times are not inflated by a wrapper around
        every hash."""
        self._skip = frozenset(skip)
        smt, core = _module("smt"), _module("core")
        operator_node, rootchain = _module("operator_node"), _module("rootchain")
        wallet, driver = _module("wallet"), _module("driver")

        if counters:
            self.patch_function("smt", "hash_pair", "smt.hash_pair", count_only=True)
            self.patch_method(core.Transaction, "hash", "core.Transaction.hash", count_only=True)
        self.patch_function("smt", "verify", "smt.verify")
        self.patch_method(smt.SparseMerkleTree, "_build", "smt.SparseMerkleTree.build")
        self.patch_method(smt.SparseMerkleTree, "prove", "smt.SparseMerkleTree.prove")

        self.patch_method(core.Keyring, "recover", "core.Keyring.recover")
        self.patch_method(core.PlasmaBlock, "build", "core.PlasmaBlock.build")

        def history_size(tracer, args, result):
            tracer.counts["history.verify_history.blocks"] += len(args[0].incl) + len(args[0].excl)

        self.patch_function("history", "verify_history", "history.verify_history", history_size)
        self.patch_function("history", "valid_tip", "history.valid_tip")
        self.patch_function("history", "extend_history", "history.extend_history")

        def accepted(tracer, args, result):
            tracer.counts["operator_node.submit_tx.accepted"] += bool(result.accepted)

        op = operator_node.PlasmaOperator
        self.patch_method(op, "produce_block", "operator_node.produce_block")
        self.patch_method(op, "get_witness", "operator_node.get_witness")
        self.patch_method(op, "submit_tx", "operator_node.submit_tx", accepted)

        def finalized(tracer, args, result):
            tracer.counts["rootchain.finalize_exit." + result] += 1

        contract = rootchain.PlasmaContract
        for attr in ("deposit", "submit_block", "start_exit", "challenge_after",
                     "challenge_between", "challenge_before", "respond_challenge_before",
                     "withdraw"):
            self.patch_method(contract, attr, "rootchain." + attr)
        self.patch_method(contract, "finalize_exit", "rootchain.finalize_exit", finalized)

        def verdict(tracer, args, result):
            tracer.counts["wallet.receive_coin.accepted"] += bool(result)

        def actions(tracer, args, result):
            tracer.counts["wallet.watch_and_challenge.actions"] += len(result)

        self.patch_method(wallet.Wallet, "receive_coin", "wallet.receive_coin", verdict)
        self.patch_method(wallet.Wallet, "send_coin", "wallet.send_coin")
        self.patch_method(wallet.Wallet, "sync", "wallet.sync")
        self.patch_method(wallet.Wallet, "watch_and_challenge", "wallet.watch_and_challenge", actions)

        for attr in ("deliver", "commit_block", "transfer", "run_watchers"):
            self.patch_method(driver.Simulation, attr, "driver." + attr)

        self.patch_function("scenarios", "fuzz", "scenarios.fuzz")

    # -- results --

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds (span minus
        the part its child spans cover), children by name, and the seconds of
        calls not nested in a span of the same layer."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer = [name.split(".", 1)[0] for name in self.names]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "layer_outer_s": 0.0}
        )
        children: Counter = Counter()
        for i in range(n):
            nid = self.span_name[i]
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            p = self.span_parent[i]
            if p < 0 or layer[self.span_name[p]] != layer[nid]:
                row["layer_outer_s"] += dur[i]
            if p >= 0:
                children[self.names[self.span_name[p]], self.names[nid]] += 1
        for (parent, name), calls in children.items():
            out[parent]["children." + name] = calls
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("name,parent,start_s,end_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]},{self.span_parent[i]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
