"""Spans at the library's module boundaries, recorded from outside the library.

The tracer replaces public names in the namespaces that call them (for
example ``text2triple.model.lstm_cell``, the name through which ``model``
calls ``numerics``) with timing wrappers, and puts the originals back on
``remove``. No library source changes. A name that no longer exists after
a refactor is skipped and listed in ``missing``; its metrics read 0 calls.

A span records its name, start, end and parent. Spans stay in memory and
are written once, by ``save``, when the run ends. The self time of a span
is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

# (namespace that calls the name, attribute, span name). The span is named
# after the module that defines the callee. Each target backs a per-layer
# metric, or is the parent whose span keeps its callees' time out of the
# caller's self time.
TARGETS = (
    # model -> numerics
    ("text2triple.model", "lstm_cell", "numerics.lstm_cell"),
    ("text2triple.model", "lstm_cell_backward", "numerics.lstm_cell_backward"),
    ("text2triple.model", "adam_step", "numerics.adam_step"),
    ("text2triple.model", "clip_global_norm", "numerics.clip_global_norm"),
    ("text2triple.model", "weighted_cross_entropy", "numerics.weighted_cross_entropy"),
    # model -> vocab
    ("text2triple.model", "encode_sentence", "vocab.encode_sentence"),
    # benchmark -> model, and model's calls to its own public names
    ("text2triple.model", "train", "model.train"),
    ("text2triple.model", "forward_loss", "model.forward_loss"),
    ("text2triple.model", "translate_greedy", "model.translate_greedy"),
    ("text2triple.model", "translate_beam", "model.translate_beam"),
    ("text2triple.model", "encode", "model.encode"),
    ("text2triple.model", "decode_step", "model.decode_step"),
    # benchmark -> scoring
    ("text2triple.scoring", "evaluate", "scoring.evaluate"),
    ("text2triple.scoring", "error_taxonomy", "scoring.error_taxonomy"),
    # benchmark -> corpus, and corpus's calls to its own public names
    ("text2triple.corpus", "distant_supervise", "corpus.distant_supervise"),
    ("text2triple.corpus", "match_sentence", "corpus.match_sentence"),
    # embeddings -> corpus (a method, so it is wrapped on the class)
    ("text2triple.corpus:KnowledgeGraph", "entity_list", "corpus.KnowledgeGraph.entity_list"),
    # benchmark -> embeddings, and embeddings' calls to its own public names
    ("text2triple.embeddings", "transe_train", "embeddings.transe_train"),
    ("text2triple.embeddings", "negative_sample", "embeddings.negative_sample"),
    ("text2triple.embeddings", "link_prediction_eval", "embeddings.link_prediction_eval"),
)


def _resolve(owner: str):
    module, _, attr = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextmanager
    def span(self, name: str):
        """A root span around one benchmark operation."""
        sid = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, time.perf_counter())

        return traced

    def install(self) -> None:
        for owner_name, attr, span_name in self.targets:
            try:
                owner = _resolve(owner_name)
            except (ImportError, AttributeError):
                owner = None
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{owner_name}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span_name, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start)
        return {
            "name": np.array(self.name_of, dtype=np.int32),
            "start": start,
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and total self seconds."""
        a = self.arrays()
        selfs = self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            sel = a["name"] == i
            out[name] = {"calls": int(sel.sum()), "self_s": float(selfs[sel].sum())}
        return out

    def child_calls(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        a = self.arrays()
        is_child = a["name"] == self._name_ids[child]
        parents = a["parent"][is_child]
        parents = parents[parents >= 0]
        return int((a["name"][parents] == self._name_ids[parent]).sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
