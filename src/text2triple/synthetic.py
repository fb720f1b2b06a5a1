"""Deterministic synthetic worlds for desk-scale experiments.

Realistic corpora need cluster-scale training, so desk-scale trend checks
and demos run on generated worlds: a closed knowledge graph, templated
sentences with one gold triple each, surface forms, and matching
pre-trained word/KG vector tables. Everything derives from a single seed.

Two flavors: an easy world with unique single-token entity names
(memorization checks) and a hard world whose entity names share surface
tokens and whose sentences bury the mentions among fillers at varying
positions (generalization / ablation trends).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedExample, KnowledgeGraph, Triple
from .numerics import make_rng

__all__ = ["SyntheticWorld", "make_easy_world", "make_hard_world"]

_VERBS = ("supplies", "borders", "controls", "funds", "admires", "visits")
_FILLERS = (
    "reportedly", "officials", "said", "that", "meanwhile", "the", "local",
    "news", "confirmed", "yesterday", "sources", "again", "clearly",
)
_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "ki", "lo", "mu", "ne",
    "pa", "qui", "ro", "su", "ta", "ve",
)


@dataclass
class SyntheticWorld:
    kg: KnowledgeGraph
    train: list[AnnotatedExample]
    dev: list[AnnotatedExample]
    test: list[AnnotatedExample]
    word_vectors: dict[str, np.ndarray]


def _entity_symbol(alias: tuple[str, ...]) -> str:
    return "ent:" + "_".join(alias)


def _predicate_symbol(verb: str) -> str:
    return "rel:" + verb


def _sample_triples(
    rng: np.random.Generator,
    entities: list[tuple[str, ...]],
    predicates: list[str],
    n: int,
) -> list[Triple]:
    seen: set[Triple] = set()
    out: list[Triple] = []
    while len(out) < n:
        s = entities[int(rng.integers(len(entities)))]
        o = entities[int(rng.integers(len(entities)))]
        if s == o:
            continue
        p = predicates[int(rng.integers(len(predicates)))]
        tr = Triple(_entity_symbol(s), _predicate_symbol(p), _entity_symbol(o))
        if tr in seen:
            continue
        seen.add(tr)
        out.append(tr)
    return out


def _render(
    rng: np.random.Generator,
    subj: tuple[str, ...],
    verb: str,
    obj: tuple[str, ...],
    max_fillers: int,
) -> tuple[str, ...]:
    def fillers(k):
        return tuple(
            _FILLERS[int(rng.integers(len(_FILLERS)))] for _ in range(int(rng.integers(k + 1)))
        )

    return fillers(max_fillers) + subj + (verb,) + fillers(max_fillers) + obj + fillers(max_fillers)


def _word_vectors(
    rng: np.random.Generator, examples: list[AnnotatedExample], dim: int
) -> dict[str, np.ndarray]:
    if dim < 1:
        raise ValueError("word_dim must be >= 1")
    tokens = sorted({t for ex in examples for t in ex.tokens})
    return {t: rng.normal(0.0, 0.3, dim) for t in tokens}


def make_easy_world(
    n_entities: int = 12,
    n_predicates: int = 4,
    n_sentences: int = 60,
    seed: int = 0,
    word_dim: int = 64,
) -> SyntheticWorld:
    """Unique single-token entity names; every sentence is a train example."""
    rng = make_rng(seed)
    names: set[str] = set()
    while len(names) < n_entities:
        name = "".join(
            _SYLLABLES[int(rng.integers(len(_SYLLABLES)))] for _ in range(3)
        )
        names.add(name)
    entities = [(n,) for n in sorted(names)]
    predicates = list(_VERBS[:n_predicates])
    triples = _sample_triples(rng, entities, predicates, n_sentences)
    surface = {_entity_symbol(e): (e,) for e in entities}
    kg = KnowledgeGraph(frozenset(triples), surface)
    alias = {sym: forms[0] for sym, forms in surface.items()}
    examples = []
    for i, tr in enumerate(triples):
        tokens = _render(rng, alias[tr.subject], tr.predicate.split(":")[1],
                         alias[tr.object], max_fillers=2)
        examples.append(AnnotatedExample(tokens, tr, f"easy:{i}"))
    return SyntheticWorld(
        kg=kg, train=examples, dev=[], test=[],
        word_vectors=_word_vectors(rng, examples, word_dim),
    )


def make_hard_world(
    seed: int = 0,
    n_train: int = 52,
    n_dev: int = 16,
    n_test: int = 36,
    word_dim: int = 16,
) -> SyntheticWorld:
    """Two-token entity names built from shared region/kind tokens.

    Entities like (north, castle) and (north, harbor) collide on surface
    tokens, sentences vary mention positions with random fillers, and the
    training split is deliberately small. Two thirds of the test re-render
    facts seen in training as fresh sentences; the remaining third holds
    whole triples out of training entirely (the KG still contains them, so
    they stay decodable under the KG-aligned target vocabulary).
    """
    rng = make_rng(seed)
    regions = ("north", "south", "east", "west")
    kinds = ("castle", "harbor", "bridge", "market")
    entities = [(r, k) for r in regions for k in kinds]
    predicates = list(_VERBS[:4])
    n_unseen = n_test // 3
    triples = _sample_triples(rng, entities, predicates, n_train + n_unseen)
    surface = {_entity_symbol(e): (e,) for e in entities}
    kg = KnowledgeGraph(frozenset(triples), surface)
    alias = {sym: forms[0] for sym, forms in surface.items()}

    def render_example(tr: Triple, tag: str) -> AnnotatedExample:
        tokens = _render(rng, alias[tr.subject], tr.predicate.split(":")[1],
                         alias[tr.object], max_fillers=3)
        return AnnotatedExample(tokens, tr, tag)

    train = [render_example(tr, f"hard:train:{i}") for i, tr in enumerate(triples[:n_train])]
    dev = [
        render_example(tr, f"hard:dev:{i}")
        for i, tr in enumerate(triples[:n_dev])  # fresh renderings of seen triples
    ]
    test_triples = triples[:n_test - n_unseen] + triples[n_train:]
    test = [render_example(tr, f"hard:test:{i}") for i, tr in enumerate(test_triples)]
    return SyntheticWorld(
        kg=kg, train=train, dev=dev, test=test,
        word_vectors=_word_vectors(rng, train + dev + test, word_dim),
    )
