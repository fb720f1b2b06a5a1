"""The per-KG alignment index against the full scans it replaced.

``oracle_find_mentions`` and ``oracle_match_sentence`` are the matcher that
rebuilt the alias index and scanned every KG triple for each sentence, kept
verbatim as the reference; ``oracle_pair_overlaps`` is the error taxonomy's
old full-KG scan.
"""

import dataclasses
import itertools
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text2triple.corpus import KnowledgeGraph, Triple, match_sentence
from text2triple.scoring import _pair_overlaps


def oracle_find_mentions(
    tokens: list[str], alias_index: list[tuple[tuple[str, ...], str]]
) -> dict[str, list[tuple[int, int]]]:
    """Greedy longest-alias-first matching over non-overlapping spans."""
    taken = [False] * len(tokens)
    mentions: dict[str, list[tuple[int, int]]] = {}
    for alias, entity in alias_index:
        width = len(alias)
        if width > len(tokens):
            continue
        for start in range(len(tokens) - width + 1):
            if any(taken[start:start + width]):
                continue
            if tuple(tokens[start:start + width]) == alias:
                for j in range(start, start + width):
                    taken[j] = True
                mentions.setdefault(entity, []).append((start, start + width))
    return mentions


def oracle_match_sentence(
    kg: KnowledgeGraph, tokens: Sequence[str]
) -> list[Triple]:
    """KG triples supported by this sentence's entity mentions."""
    alias_index = [
        (tuple(t.lower() for t in alias), entity)
        for entity, aliases in sorted(kg.surface_forms.items())
        for alias in aliases
    ]
    alias_index.sort(key=lambda pair: (-len(pair[0]), pair[0], pair[1]))
    lowered = [t.lower() for t in tokens]
    mentions = oracle_find_mentions(lowered, alias_index)
    matched = []
    for tr in sorted(kg.triples):
        if tr.subject == tr.object:
            ok = len(mentions.get(tr.subject, ())) >= 2
        else:
            ok = tr.subject in mentions and tr.object in mentions
        if ok:
            matched.append(tr)
    return matched


def oracle_pair_overlaps(pred: Triple, kg: KnowledgeGraph | None) -> bool:
    if kg is None:
        return False
    pair = (pred.subject, pred.object)
    flipped = (pred.object, pred.subject)
    n = sum(
        1 for t in kg.triples if (t.subject, t.object) in (pair, flipped)
    )
    return n >= 2


def sample_kg() -> KnowledgeGraph:
    return KnowledgeGraph(
        frozenset({Triple("e:a", "p:r", "e:b"), Triple("e:b", "p:r", "e:b")}),
        {"e:a": (("alpha",),), "e:b": (("beta", "one"), ("Beta",))},
    )


class TestImmutableKnowledgeGraph:
    def test_reassigning_triples_raises(self):
        kg = sample_kg()
        with pytest.raises(dataclasses.FrozenInstanceError):
            kg.triples = frozenset()

    def test_surface_forms_are_a_read_only_copy(self):
        forms = {"e:a": (("alpha",),)}
        kg = KnowledgeGraph(frozenset({Triple("e:a", "p:r", "e:a")}), forms)
        with pytest.raises(TypeError):
            kg.surface_forms["e:b"] = (("beta",),)
        forms["e:b"] = (("beta",),)
        assert "e:b" not in kg.surface_forms

    def test_cached_index_changes_neither_eq_nor_repr(self):
        kg, twin = sample_kg(), sample_kg()
        before = repr(kg)
        assert kg.alignment_index.widths == {"alpha": (1,), "beta": (1, 2)}
        assert repr(kg) == before == repr(twin)
        assert kg == twin and twin == kg

    def test_entity_list_is_built_once(self):
        kg = sample_kg()
        first = kg.entity_list()
        assert kg.entity_list() is first
        assert first == tuple(sorted({t.subject for t in kg.triples}
                                     | {t.object for t in kg.triples}))
        assert kg == sample_kg() and repr(kg) == repr(sample_kg())


class TestPairOverlaps:
    def test_agrees_with_full_scan(self):
        # reversed pairs (a,b)/(b,a), a self-loop pair with two relations,
        # a lone self-loop, and a pair holding a single relation
        kg = KnowledgeGraph(frozenset({
            Triple("e:a", "p:r1", "e:b"),
            Triple("e:b", "p:r2", "e:a"),
            Triple("e:c", "p:r1", "e:c"),
            Triple("e:c", "p:r2", "e:c"),
            Triple("e:d", "p:r1", "e:d"),
            Triple("e:a", "p:r1", "e:d"),
        }))
        ents = ["e:a", "e:b", "e:c", "e:d", "e:x"]
        verdicts = {}
        for s, o in itertools.product(ents, repeat=2):
            pred = Triple(s, "p:r9", o)
            assert _pair_overlaps(pred, kg) == oracle_pair_overlaps(pred, kg), (s, o)
            verdicts[s, o] = _pair_overlaps(pred, kg)
        assert verdicts["e:a", "e:b"] and verdicts["e:b", "e:a"] and verdicts["e:c", "e:c"]
        assert not verdicts["e:d", "e:d"] and not verdicts["e:a", "e:d"]
        assert not _pair_overlaps(Triple("e:a", "p:r1", "e:b"), None)


# Random dense KGs with self-loops, whose aliases are drawn from a few tokens
# in two cases, so they nest ("b" in "a b"), overlap ("a b" / "b c"), differ
# only in case ("a" / "A") and are shared by entities. Sentences are drawn
# mostly from the alias tokens.
ALIAS_TOKENS = ["a", "b", "c", "A", "B"]
ENTITIES = ["e0", "e1", "e2", "e3"]
alias_st = st.lists(st.sampled_from(ALIAS_TOKENS), min_size=1, max_size=3).map(tuple)


@st.composite
def kg_and_sentences(draw):
    forms = {ent: tuple(draw(st.lists(alias_st, min_size=1, max_size=3))) for ent in ENTITIES}
    donor, taker = draw(st.permutations(ENTITIES))[:2]
    forms[taker] += (forms[donor][0],)  # one alias shared verbatim by two entities
    ents = st.sampled_from(ENTITIES)
    triples = draw(st.frozensets(
        st.builds(Triple, ents, st.sampled_from(["p", "q"]), ents), min_size=4, max_size=20,
    ))
    triples |= {Triple(e, "p", e) for e in draw(st.lists(ents, min_size=1, max_size=3))}
    word = st.sampled_from(ALIAS_TOKENS + ["x"])
    sentences = draw(st.lists(st.lists(word, max_size=10), min_size=1, max_size=8))
    return KnowledgeGraph(triples, forms), sentences


@settings(max_examples=400, deadline=None, derandomize=True)
@given(kg_and_sentences())
def test_index_matcher_agrees_with_full_scan(case):
    kg, sentences = case
    for tokens in sentences:
        assert match_sentence(kg, tokens) == oracle_match_sentence(kg, tokens)


def test_tie_breaks_match_full_scan():
    # nested, overlapping, case-only and shared aliases plus a self-loop,
    # each resolved the way the full scan resolves them
    kg = KnowledgeGraph(
        frozenset({
            Triple("e:nyc", "p:in", "e:ny"),
            Triple("e:ab", "p:r", "e:c"),
            Triple("e:bc", "p:r", "e:c"),
            Triple("e:c", "p:r", "e:c"),
            Triple("e:d", "p:r", "e:c"),
        }),
        {
            "e:nyc": (("new", "york", "city"),),
            "e:ny": (("new", "york"),),
            "e:ab": (("a", "b"),),
            "e:bc": (("b", "c"),),
            "e:c": (("c",), ("C",)),
            "e:d": (("c",),),
            "e:a0": (("b", "a"),),  # sorts before e:ab; its alias sorts after
        },
    )
    sentences = [
        ["new", "york", "city", "in", "new", "york"],
        ["a", "b", "c"],
        ["C", "x", "c"],
        ["b", "c", "c"],
        ["b", "a", "b", "c"],
    ]
    for tokens in sentences:
        assert match_sentence(kg, tokens) == oracle_match_sentence(kg, tokens)
    assert match_sentence(kg, sentences[0]) == [Triple("e:nyc", "p:in", "e:ny")]
    assert match_sentence(kg, sentences[1]) == [Triple("e:ab", "p:r", "e:c")]
    assert match_sentence(kg, sentences[2]) == [Triple("e:c", "p:r", "e:c")]
    assert match_sentence(kg, sentences[3]) == [Triple("e:bc", "p:r", "e:c")]
    # alias order, not entity or position, decides between (b a) and (a b)
    assert match_sentence(kg, sentences[4]) == [Triple("e:ab", "p:r", "e:c")]


@pytest.mark.parametrize("tokens, expected", [
    # the last token starts only aliases longer than what is left
    (["a", "c"], []),
    (["b", "a", "c"], [Triple("e:a", "p", "e:b")]),
    (["c"], []),
    # no token starts an alias
    (["x", "y", "A1", "bc"], []),
    ([], []),
    # "b" starts a 1-token and a 3-token alias: the 3 does not fit at the end,
    # so "c b" claims the last token
    (["a", "c", "b"], [Triple("e:c", "p", "e:a")]),
    (["b", "x", "y", "b"], [Triple("e:b", "p", "e:b")]),
    (["B", "a"], [Triple("e:a", "p", "e:b")]),
])
def test_first_token_index_boundaries(tokens, expected):
    # "b" starts a 1-token and a 3-token alias; "c" starts only a 2-token one
    kg = KnowledgeGraph(
        frozenset({Triple("e:a", "p", "e:b"), Triple("e:c", "p", "e:a"),
                   Triple("e:b", "p", "e:b")}),
        {"e:a": (("a",),), "e:b": (("b",), ("B", "x", "y")), "e:c": (("c", "b"),)},
    )
    assert kg.alignment_index.widths == {"a": (1,), "b": (1, 3), "c": (2,)}
    assert match_sentence(kg, tokens) == oracle_match_sentence(kg, tokens) == expected
