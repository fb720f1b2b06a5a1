"""Seeded inputs for the benchmark workloads: the same seed gives the same inputs.

The library only ever sees what these functions return. Three input sets:

* ``hard_setup``: the hard synthetic world at the criterion-09 setup, with
  the word-vector and TransE tables that flags W and G need (``train`` and
  ``infer``).
* ``infer_test_set``: raw-text test sentences over a word vocabulary larger
  than the training world's, scored against an extended KG (``infer``).
* ``prep_inputs``: a KG of about 20k triples and 2k entities with nested and
  overlapping multi-token aliases and self-loop triples, plus sentences
  with planted alignment labels (``prep``). The labels follow from the
  mentions the generator planted and from its own pair index over the KG,
  never from the matcher under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from text2triple import embeddings, numerics, synthetic, vocab
from text2triple.corpus import AmbiguousSentence, AnnotatedExample, KnowledgeGraph, Triple

# The setup of acceptance criterion 09 (flags A+W+G). Epochs, seed and
# patience are chosen by each workload.
CRITERION09 = dict(
    word_dim=16, kg_dim=16, enc_hidden=16, dec_hidden=32,
    use_attention=True, use_word_init=True, use_kg_init=True,
    batch_size=4, lr=3e-3,
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes and the work done per operation of each workload."""

    train_epochs: int            # model.train epochs at criterion 09, per op
    default_epochs: int          # model.train epochs at the CLI defaults, per op
    ckpt_epochs: int             # epochs of the checkpoint ``infer`` sets up
    infer_known: int             # test sentences whose gold the model knows
    infer_unseen: int            # test sentences whose gold it cannot know
    extra_kg_triples: int        # triples the infer KG adds to the world's
    beam_sentences: int
    beam_width: int
    translate_sentences: int     # single-sentence translations per round
    prep_entities: int
    prep_triples: int
    prep_self_loops: int
    prep_batch: int              # sentences per distant_supervise call
    prep_batches: int
    transe_triples: int          # size of the KG TransE trains on
    transe_epochs: int
    linkpred_queries: int        # single-triple link predictions per round
    setups: int                  # set-ups per run; setup_s is their median


FULL = Sizes(
    train_epochs=3, default_epochs=3, ckpt_epochs=4,
    infer_known=150, infer_unseen=50, extra_kg_triples=1000,
    beam_sentences=40, beam_width=4, translate_sentences=100,
    prep_entities=2000, prep_triples=20000, prep_self_loops=200,
    prep_batch=4, prep_batches=8,
    transe_triples=1000, transe_epochs=1, linkpred_queries=200,
    setups=5,
)

TINY = Sizes(
    train_epochs=2, default_epochs=2, ckpt_epochs=2,
    infer_known=12, infer_unseen=4, extra_kg_triples=60,
    beam_sentences=4, beam_width=4, translate_sentences=8,
    prep_entities=120, prep_triples=600, prep_self_loops=20,
    prep_batch=8, prep_batches=2,
    transe_triples=200, transe_epochs=1, linkpred_queries=12,
    setups=2,
)


# ---------------------------------------------------------------------------
# Hard world at the criterion-09 setup (train, infer)
# ---------------------------------------------------------------------------


# Every generated sentence has a fixed length, so every seed gives the
# encoder and the matcher the same amount of work.
SENTENCE_LEN = 10
PREP_SENTENCE_LEN = 16


def _with_fillers(rng, chunks, fillers, length: int, min_gap: int) -> list[str]:
    """The chunks in order, padded with fillers to exactly ``length`` tokens;
    gaps between chunks get at least ``min_gap`` fillers."""
    gaps = [0] + [min_gap] * (len(chunks) - 1) + [0]
    spare = length - sum(len(c) for c in chunks) - sum(gaps)
    if spare < 0:
        raise ValueError(f"chunks {chunks} do not fit in {length} tokens")
    for g in rng.integers(len(gaps), size=spare):
        gaps[int(g)] += 1
    tokens: list[str] = []
    for gap, chunk in zip(gaps, list(chunks) + [()]):
        tokens += [fillers[int(i)] for i in rng.integers(len(fillers), size=gap)]
        tokens += list(chunk)
    return tokens


def _entity_tokens(symbol: str) -> tuple[str, ...]:
    return tuple(symbol.split(":", 1)[1].split("_"))


def _render_fact(rng, tr: Triple, fillers, length: int = SENTENCE_LEN) -> list[str]:
    """The hard world's sentence shape: subject and verb, then object."""
    verb = tr.predicate.split(":", 1)[1]
    return _with_fillers(rng, [_entity_tokens(tr.subject) + (verb,),
                               _entity_tokens(tr.object)], fillers, length, 0)


@dataclass
class HardSetup:
    world: synthetic.SyntheticWorld
    train: list[AnnotatedExample]    # the world's training facts at SENTENCE_LEN
    fillers: list[str]
    word_vocab: vocab.WordVocab
    tvocab: vocab.TripleVocab
    word_init: np.ndarray
    kg_init: np.ndarray


def hard_setup(seed: int) -> HardSetup:
    """World, vocabularies and W/G init tables, as criterion 09 builds them,
    with the training facts re-rendered at a fixed length."""
    world = synthetic.make_hard_world(seed=seed, word_dim=16)
    tvocab = vocab.build_kg_vocab(world.kg.triples)
    named = {tok for sym in tvocab.entities for tok in _entity_tokens(sym)}
    named |= {p.split(":", 1)[1] for p in tvocab.predicates}
    fillers = sorted({tok for ex in world.train for tok in ex.tokens} - named)
    rng = numerics.make_rng(seed + 1000)
    train = [AnnotatedExample(tuple(_render_fact(rng, ex.gold, fillers)), ex.gold, ex.source_id)
             for ex in world.train]
    word_vocab = vocab.build_word_vocab([list(ex.tokens) for ex in train])
    emb = embeddings.transe_train(
        world.kg, embeddings.TransEConfig(dim=16, epochs=150, seed=seed)
    )
    word_init = np.vstack([
        world.word_vectors[tok] if tok in world.word_vectors
        else numerics.uniform_init(16, rng)
        for tok in word_vocab.tokens
    ])
    kg_init = embeddings.decoder_init_table(emb, tvocab, 16, rng)[0]
    return HardSetup(world, train, fillers, word_vocab, tvocab, word_init, kg_init)


# ---------------------------------------------------------------------------
# Infer test set
# ---------------------------------------------------------------------------

# Fillers the training world never uses: they map to UNK and make the test
# vocabulary larger than the training vocabulary.
_NEW_FILLERS = (
    "analysts", "officially", "today", "apparently", "witnesses", "noted",
    "briefly", "later", "residents", "insisted", "quietly", "still",
)
_NEW_REGIONS = ("upper", "lower")
_NEW_KINDS = ("tower", "mill")
_NEW_VERBS = ("guards", "rebuilds")


@dataclass
class InferTestSet:
    lines: list[str]             # raw text, as the translate sub-command reads it
    golds: list[Triple]
    kg: KnowledgeGraph           # the world's KG plus extra triples


def infer_test_set(setup: HardSetup, seed: int, sizes: Sizes) -> InferTestSet:
    """Fresh renderings of world facts (known golds) and of extra-KG facts
    over new entities and verbs (golds the model cannot emit)."""
    rng = numerics.make_rng(seed + 2)
    world = setup.world
    fillers = setup.fillers + list(_NEW_FILLERS)

    regions = sorted({_entity_tokens(s)[0] for s in setup.tvocab.entities}) + list(_NEW_REGIONS)
    kinds = sorted({_entity_tokens(s)[1] for s in setup.tvocab.entities}) + list(_NEW_KINDS)
    entities = [f"ent:{r}_{k}" for r in regions for k in kinds]
    predicates = sorted(setup.tvocab.predicates) + [f"rel:{v}" for v in _NEW_VERBS]
    known = sorted(world.kg.triples)
    extra: set[Triple] = set()
    while len(extra) < sizes.extra_kg_triples:
        s, o = rng.choice(len(entities), size=2, replace=False)
        tr = Triple(entities[s], predicates[int(rng.integers(len(predicates)))], entities[o])
        if tr not in world.kg.triples:
            extra.add(tr)
    unseen = sorted(
        tr for tr in extra
        if not setup.tvocab.has_triple_symbols(tr.subject, tr.predicate, tr.object)
    )

    golds = [known[int(rng.integers(len(known)))] for _ in range(sizes.infer_known)]
    golds += [unseen[int(rng.integers(len(unseen)))] for _ in range(sizes.infer_unseen)]
    lines = []
    for tr in golds:
        text = " ".join(_render_fact(rng, tr, fillers))
        lines.append(text[0].upper() + text[1:] + ".")
    return InferTestSet(lines, golds, KnowledgeGraph(frozenset(known) | frozenset(extra)))


# ---------------------------------------------------------------------------
# Prep: large KG with planted alignment labels
# ---------------------------------------------------------------------------

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
# Filler tokens: no alias uses them (aliases are 3- and 4-letter pseudo-words
# and every filler here is longer), so no alias match can span a filler.
_PREP_FILLERS = (
    "reportedly", "officials", "yesterday", "meanwhile", "confirmed", "sources",
    "according", "statement", "earlier", "several", "regional", "observers",
    "announced", "however", "further", "evening",
)


def _pseudo_words(rng, n: int, pattern: str) -> list[str]:
    """n distinct words; pattern letters C/V draw a consonant/vowel."""
    out: set[str] = set()
    while len(out) < n:
        out.add("".join(
            (_CONSONANTS if ch == "C" else _VOWELS)[int(rng.integers(5 if ch == "V" else 14))]
            for ch in pattern
        ))
    return sorted(out)


@dataclass
class PrepInputs:
    kg: KnowledgeGraph
    transe_kg: KnowledgeGraph
    batches: list[list[tuple[str, ...]]]
    expected: list[tuple[list[AnnotatedExample], list[AmbiguousSentence]]]
    queries: list[Triple]


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def prep_inputs(seed: int, sizes: Sizes) -> PrepInputs:
    rng = numerics.make_rng(seed + 3)
    heads = _pseudo_words(rng, max(20, sizes.prep_entities // 4), "CVCV")
    mods = _pseudo_words(rng, max(10, sizes.prep_entities // 16), "CVC")

    # Alias shapes: (head), (mod head), (mod mod head), (mod mod). Heads and
    # modifiers are shared across entities, so a (head) alias nests inside
    # many longer ones; (a b) and (b c) pairs overlap on b.
    aliases_taken: set[tuple[str, ...]] = set()

    def new_alias() -> tuple[str, ...]:
        while True:
            shape = rng.random()
            h = heads[int(rng.integers(len(heads)))]
            m1, m2 = (mods[int(i)] for i in rng.integers(len(mods), size=2))
            if shape < 0.2:
                alias = (h,)
            elif shape < 0.65:
                alias = (m1, h)
            elif shape < 0.85:
                alias = (m1, m2, h)
            else:
                alias = (m1, m2)
            if alias not in aliases_taken and len(set(alias)) == len(alias):
                aliases_taken.add(alias)
                return alias

    surface: dict[str, tuple[tuple[str, ...], ...]] = {}
    while len(surface) < sizes.prep_entities:
        first = new_alias()
        forms = (first, new_alias()) if rng.random() < 0.3 else (first,)
        surface["ent:" + "_".join(first)] = forms
    entities = sorted(surface)
    predicates = [f"rel:{w}" for w in _pseudo_words(rng, 24, "CVCVC")]

    triples: set[Triple] = set()
    while len(triples) < sizes.prep_triples - sizes.prep_self_loops:
        s, o = rng.choice(len(entities), size=2, replace=False)
        triples.add(Triple(entities[s], predicates[int(rng.integers(24))], entities[o]))
    while len(triples) < sizes.prep_triples:
        e = entities[int(rng.integers(len(entities)))]
        triples.add(Triple(e, predicates[int(rng.integers(24))], e))
    kg = KnowledgeGraph(frozenset(triples), surface)

    # The generator's own pair index: unordered entity pair -> triples.
    pairs: dict[tuple[str, str], list[Triple]] = {}
    for tr in sorted(triples):
        pairs.setdefault(_pair_key(tr.subject, tr.object), []).append(tr)
    neighbours: dict[str, list[str]] = {}
    for a, b in pairs:
        if a != b:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
    unique_pairs = sorted(k for k, v in pairs.items() if len(v) == 1 and k[0] != k[1])
    multi_pairs = sorted(k for k, v in pairs.items() if len(v) > 1 and k[0] != k[1])
    unique_loops = sorted(k[0] for k, v in pairs.items() if len(v) == 1 and k[0] == k[1])

    # Overlap chunks (a b c) where aliases (a b) and (b c) belong to two
    # entities and nothing else matches inside: the smaller alias claims the
    # span, and the left-over modifier is no alias on its own.
    owner = {alias: ent for ent, forms in surface.items() for alias in forms}
    by_first: dict[str, list[tuple[str, ...]]] = {}
    for alias in owner:
        if len(alias) == 2 and alias[1] in mods:
            by_first.setdefault(alias[0], []).append(alias)
    overlaps = []
    for left in sorted(a for a in owner if len(a) == 2 and a[1] in mods):
        for right in sorted(by_first.get(left[1], ())):
            winner = owner[min(left, right)]
            if right[1] != left[0] and winner != owner[max(left, right)] and winner in neighbours:
                overlaps.append(((left[0], left[1], right[1]), winner))

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]

    def chunk(ent: str) -> tuple[str, ...]:
        return pick(surface[ent])

    def expected_triples(mentioned: list[str]) -> list[Triple]:
        found: set[Triple] = set()
        distinct = sorted(set(mentioned))
        for i, a in enumerate(distinct):
            if mentioned.count(a) >= 2:
                found.update(pairs.get((a, a), ()))
            for b in distinct[i + 1:]:
                found.update(pairs.get((a, b), ()))
        return sorted(found)

    def plant(kind: str) -> tuple[list[tuple[str, ...]], list[str]]:
        """(token chunks, entities the matcher must find) for one sentence."""
        if kind == "one_overlap" and overlaps:
            tokens, winner = pick(overlaps)
            partners = [o for o in neighbours[winner] if len(pairs[_pair_key(winner, o)]) == 1]
            if partners:
                other = pick(partners)
                return [tokens, chunk(other)], [winner, other]
        if kind == "one_self" and unique_loops:
            e = pick(unique_loops)
            return [chunk(e), chunk(e)], [e, e]
        if kind in ("one", "one_overlap", "one_self"):
            a, b = pick(unique_pairs)
            return [chunk(a), chunk(b)], [a, b]
        if kind == "amb_pair":
            a, b = pick(multi_pairs)
            return [chunk(a), chunk(b)], [a, b]
        if kind == "amb_path":
            mid = pick([e for e in entities if len(neighbours.get(e, ())) >= 2])
            a, c = rng.choice(neighbours[mid], size=2, replace=False)
            return [chunk(a), chunk(mid), chunk(c)], [str(a), mid, str(c)]
        if kind == "none_pair":
            while True:
                a, b = rng.choice(len(entities), size=2, replace=False)
                a, b = entities[a], entities[b]
                if _pair_key(a, b) not in pairs:
                    return [chunk(a), chunk(b)], [a, b]
        e = pick(entities)  # "none_single": one mention supports no triple
        return [chunk(e)], [e]

    kinds = ("one", "one", "one_overlap", "one_self",
             "amb_pair", "amb_path", "none_pair", "none_single")
    want = {"one": 1, "one_overlap": 1, "one_self": 1, "amb_pair": 2,
            "amb_path": 2, "none_pair": 0, "none_single": 0}
    batches, expected = [], []
    for b in range(sizes.prep_batches):
        batch: list[tuple[str, ...]] = []
        examples: list[AnnotatedExample] = []
        report: list[AmbiguousSentence] = []
        for i in range(sizes.prep_batch):
            kind = kinds[(b * sizes.prep_batch + i) % len(kinds)]
            chunks, mentioned = plant(kind)
            order = rng.permutation(len(chunks))
            tokens = _with_fillers(rng, [chunks[j] for j in order], _PREP_FILLERS,
                                   PREP_SENTENCE_LEN, 1)
            lowered = tuple(tokens)
            if rng.random() < 0.3:
                tokens[0] = tokens[0].capitalize()
            matched = expected_triples(mentioned)
            if min(len(matched), 2) != want[kind]:
                raise RuntimeError(f"generator planted {kind} but it matches {len(matched)}")
            if len(matched) == 1:
                examples.append(AnnotatedExample(lowered, matched[0], f"ds:{i}"))
            elif matched:
                report.append(AmbiguousSentence(i, lowered, tuple(matched)))
            batch.append(tuple(tokens))
        batches.append(batch)
        expected.append((examples, report))

    # TransE trains on the subgraph induced by a random entity subset, cut to
    # exactly transe_triples triples: dense enough to learn from in one epoch.
    keep = int(len(entities) * math.sqrt(1.3 * sizes.transe_triples / len(triples)))
    subset = {entities[int(i)] for i in rng.choice(len(entities), size=keep, replace=False)}
    induced = sorted(t for t in triples if t.subject in subset and t.object in subset)
    if len(induced) < sizes.transe_triples:
        raise RuntimeError(f"induced subgraph has only {len(induced)} triples")
    picked = rng.choice(len(induced), size=sizes.transe_triples, replace=False)
    transe_triples = [induced[int(i)] for i in sorted(picked)]
    queries = [transe_triples[int(i)] for i in
               rng.choice(len(transe_triples), size=sizes.linkpred_queries, replace=False)]
    return PrepInputs(
        kg=kg,
        transe_kg=KnowledgeGraph(frozenset(transe_triples)),
        batches=batches,
        expected=expected,
        queries=queries,
    )
