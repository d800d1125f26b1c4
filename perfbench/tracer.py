"""Outside-in span tracer over skiprec's public functions.

``Tracer.install`` replaces each named function with a wrapper that records a
span (name, start, end, parent span, utterance id). It patches every skiprec
module attribute that holds the function, so ``train.evaluate_corpus`` is
traced along with ``evaluate.evaluate_corpus``; methods are patched on their
class. A target the program no longer has is listed in ``missing`` and its
metric is left out. Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    """A function to trace: ``module.attr`` (``attr`` may be ``Class.method``).

    ``names`` holds the span name; with several names the n-th call under one
    parent span gets the n-th name (``run_blocks`` is stage 1, then stage 2).
    ``observe(arguments, result, tracer)`` sees each call, to record counts.
    """

    module: str
    attr: str
    names: tuple[str, ...]
    observe: Callable | None = None


@dataclass
class Tracer:
    targets: list[Target]
    names: list[str] = field(default_factory=list)
    name_ids: dict = field(default_factory=dict)
    span_name: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)
    parent: list = field(default_factory=list)
    utterance: list = field(default_factory=list)
    records: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    utt: str = ""
    _stack: list = field(default_factory=list)
    _children: dict = field(default_factory=dict)
    _patches: list = field(default_factory=list)

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.utterance.append(self.utt)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, utt: str = ""):
        """A span opened by the benchmark itself, such as one operation."""
        self.utt = utt
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def record(self, key: str, value) -> None:
        """Keep ``value`` under ``key``, tagged with the name of the open root span."""
        root = self.names[self.span_name[self._stack[0]]] if self._stack else ""
        self.records.setdefault(key, []).append((root, value))

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        names = target.names
        observe = target.observe
        sig = inspect.signature(fn) if observe is not None else None
        tracer = self

        def traced(*args, **kwargs):
            name = names[0]
            if len(names) > 1:
                key = (tracer._stack[-1] if tracer._stack else -1, names)
                n = tracer._children.get(key, 0)
                tracer._children[key] = n + 1
                name = names[min(n, len(names) - 1)]
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(sig.bind(*args, **kwargs).arguments, result, tracer)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import skiprec
        modules = [skiprec] + [importlib.import_module(f"skiprec.{m.name}")
                               for m in pkgutil.iter_modules(skiprec.__path__)]
        for target in self.targets:
            try:
                owner = importlib.import_module(target.module)
                *path, leaf = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            wrapped = self._wrap(fn, target)
            holders = [owner] if path else [m for m in modules if getattr(m, leaf, None) is fn]
            for holder in holders:
                self._patches.append((holder, leaf, fn))
                setattr(holder, leaf, wrapped)

    def uninstall(self) -> None:
        for holder, leaf, fn in reversed(self._patches):
            setattr(holder, leaf, fn)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def totals(self, roots: tuple[str, ...]) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, under the given roots.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        n = len(self.start)
        if n == 0:
            return {}
        name = np.asarray(self.span_name, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        top = np.where(has_parent, parent, np.arange(n))
        while True:   # pointer jumping until every span points at its root
            nxt = top[top]
            if np.array_equal(nxt, top):
                break
            top = nxt
        root_ids = [self.name_ids[r] for r in roots if r in self.name_ids]
        keep = np.isin(name[top], root_ids)
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        inclusive = np.bincount(name[keep], weights=dur[keep], minlength=k)
        self_time = np.bincount(name[keep], weights=(dur - child_sum)[keep], minlength=k)
        return {self.names[i]: {"calls": int(calls[i]), "inclusive_s": float(inclusive[i]),
                                "self_s": float(self_time[i])}
                for i in range(k) if calls[i]}

    def write(self, path: Path) -> None:
        """All spans as arrays: name index, start and end seconds, parent index, utterance."""
        utt_ids = sorted(set(self.utterance))
        index = {u: i for i, u in enumerate(utt_ids)}
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            utterance=np.array([index[u] for u in self.utterance], dtype=np.int32),
            utterance_ids=np.array(utt_ids))
