"""Dataset ingestion and distant-supervision alignment.

A dataset is a JSONL file: one record per line with ``tokens`` (array of
strings) and ``triple`` (array of exactly 3 strings). Knowledge graphs are
TSV ``subject<TAB>predicate<TAB>object`` files plus a surface-form file
``entity<TAB>alias`` mapping entities to textual aliases. Distant
supervision pairs a sentence with a KG triple when aliases of both its
entities occur as non-overlapping token subsequences.

Alignment reads an index that each ``KnowledgeGraph`` builds once, on first
use, and keeps: lowercased alias -> entities, lowercased first token -> the
lengths of the aliases it starts, and subject -> triples. A sentence is
probed only at tokens that start some alias, and only with the lengths that
fit, so a token that starts no alias costs one dict lookup. A sentence's
mentions are claimed greedily over non-overlapping spans, longest alias
first, then by alias, then by entity, then by position. A triple whose
subject is its object (a self-loop) needs two mentions of that entity. A
KG's symbol tables, ``vocab``, are likewise built once and kept.
"""

from __future__ import annotations

import functools
import json
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .vocab import DataError, TripleVocab, build_kg_vocab, read_lines, tokenize

__all__ = [
    "AlignmentIndex",
    "AmbiguousSentence",
    "AnnotatedExample",
    "DataError",
    "Dataset",
    "KnowledgeGraph",
    "Triple",
    "distant_supervise",
    "examples_text",
    "jsonl_text",
    "load_examples",
    "load_kg_file",
    "load_surface_forms",
]


class Triple(NamedTuple):
    """One fact: (subject, predicate, object) in KG vocabulary symbols."""

    subject: str
    predicate: str
    object: str


@dataclass(frozen=True)
class AnnotatedExample:
    """A tokenized sentence paired with exactly one gold triple."""

    tokens: tuple[str, ...]
    gold: Triple
    source_id: str

    def __post_init__(self):
        if not self.tokens:
            raise ValueError(f"{self.source_id}: example has no tokens")


class AlignmentIndex(NamedTuple):
    """Lookups that alignment and scoring share, built once per KG."""

    aliases: Mapping[tuple[str, ...], tuple[str, ...]]  # lowercased alias -> sorted entities
    # lowercased first token -> sorted lengths of the aliases it starts; a token
    # missing here starts no alias, so match_sentence probes no span at it
    widths: Mapping[str, tuple[int, ...]]
    by_subject: Mapping[str, tuple[Triple, ...]]  # subject -> its triples, sorted


@dataclass(frozen=True)
class KnowledgeGraph:
    """Deduplicated triple set plus entity surface forms (token tuples).

    Frozen, and ``surface_forms`` is a read-only copy, so what it caches on
    first use, the alignment index and ``vocab``, can never go stale.
    """

    triples: frozenset[Triple]
    surface_forms: Mapping[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "triples", frozenset(self.triples))
        object.__setattr__(
            self, "surface_forms", types.MappingProxyType(dict(self.surface_forms))
        )
        for ent, aliases in self.surface_forms.items():
            if any(len(a) == 0 for a in aliases):
                raise ValueError(f"entity {ent!r} has an empty alias")

    def entity_list(self) -> tuple[str, ...]:
        """Sorted subjects and objects: the entity table of ``vocab``."""
        return self.vocab.entities

    @functools.cached_property
    def vocab(self) -> TripleVocab:
        """``build_kg_vocab(self.triples)``, built on first use and cached."""
        return build_kg_vocab(self.triples)

    @functools.cached_property
    def alignment_index(self) -> AlignmentIndex:
        """Built on first use and cached on the instance."""
        aliases: dict[tuple[str, ...], set[str]] = {}
        widths: dict[str, set[int]] = {}
        for entity, forms in self.surface_forms.items():
            for alias in forms:
                lowered = tuple(t.lower() for t in alias)
                aliases.setdefault(lowered, set()).add(entity)
                widths.setdefault(lowered[0], set()).add(len(lowered))
        by_subject: dict[str, list[Triple]] = {}
        for tr in self.triples:
            by_subject.setdefault(tr.subject, []).append(tr)
        return AlignmentIndex(
            aliases={alias: tuple(sorted(ents)) for alias, ents in aliases.items()},
            widths={first: tuple(sorted(ws)) for first, ws in widths.items()},
            by_subject={s: tuple(sorted(trs)) for s, trs in by_subject.items()},
        )


@dataclass
class Dataset:
    """Train/dev/test splits, disjoint by source_id."""

    train: list[AnnotatedExample] = field(default_factory=list)
    dev: list[AnnotatedExample] = field(default_factory=list)
    test: list[AnnotatedExample] = field(default_factory=list)

    def __post_init__(self):
        seen: dict[str, str] = {}
        for split_name in ("train", "dev", "test"):
            for ex in getattr(self, split_name):
                if ex.source_id in seen and seen[ex.source_id] != split_name:
                    raise ValueError(
                        f"source_id {ex.source_id!r} appears in both "
                        f"{seen[ex.source_id]} and {split_name}"
                    )
                seen[ex.source_id] = split_name


# ---------------------------------------------------------------------------
# File loaders
# ---------------------------------------------------------------------------


def _validate_record(rec, where: str) -> tuple[tuple[str, ...], Triple]:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: record is not an object")
    tokens = rec.get("tokens")
    triple = rec.get("triple")
    if not isinstance(tokens, list) or not tokens or not all(
        isinstance(t, str) and t for t in tokens
    ):
        raise DataError(f"{where}: 'tokens' must be a non-empty array of strings")
    if not isinstance(triple, list) or len(triple) != 3:
        n = len(triple) if isinstance(triple, list) else "missing"
        raise DataError(f"{where}: 'triple' must have exactly 3 elements, got {n}")
    if not all(isinstance(s, str) and s for s in triple):
        raise DataError(f"{where}: 'triple' elements must be non-empty strings")
    return tuple(tokens), Triple(*triple)


def load_examples(path) -> list[AnnotatedExample]:
    """Read one JSONL dataset file. Malformed lines are reported by number.
    An ``id`` is kept as ``str(id)``; a missing or null one gives ``file:line``."""
    path = Path(path)
    examples = []
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: invalid JSON ({exc.msg})") from exc
        tokens, triple = _validate_record(rec, where)
        source_id = rec.get("id")
        if source_id is None:
            source_id = f"{path.name}:{lineno}"
        elif not (type(source_id) is int or isinstance(source_id, str) and source_id):
            raise DataError(f"{where}: 'id' must be a non-empty string or an integer")
        examples.append(AnnotatedExample(tokens, triple, str(source_id)))
    return examples


def jsonl_text(records: Iterable[Mapping]) -> str:
    """One JSON object per line, keys sorted, non-ASCII kept as is."""
    return "".join(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n" for rec in records)


def examples_text(examples: Iterable[AnnotatedExample]) -> str:
    """A dataset file's text, read back by load_examples."""
    return jsonl_text(
        {"id": ex.source_id, "tokens": list(ex.tokens), "triple": list(ex.gold)}
        for ex in examples
    )


def _tsv_rows(path, n_fields: int, expected: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each non-empty line of a TSV file. A line
    that does not split at tabs into exactly ``n_fields`` non-empty fields
    raises DataError ``path:line: expected <expected>``."""
    for lineno, line in read_lines(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != n_fields or not all(parts):
            raise DataError(f"{path}:{lineno}: expected {expected}")
        yield lineno, parts


def load_kg_file(path) -> frozenset[Triple]:
    """TSV subject<TAB>predicate<TAB>object rows; a repeated triple counts once."""
    return frozenset(Triple(*parts) for _, parts in
                     _tsv_rows(path, 3, "3 tab-separated non-empty fields"))


def load_surface_forms(path) -> dict[str, tuple[tuple[str, ...], ...]]:
    """TSV entity<TAB>alias rows, several per entity; each alias is tokenized,
    must hold a token and counts once, in first-seen order."""
    forms: dict[str, dict[tuple[str, ...], None]] = {}  # entity -> ordered set of aliases
    for lineno, (entity, text) in _tsv_rows(path, 2, "entity<TAB>alias"):
        alias = tuple(tokenize(text))
        if not alias:
            raise DataError(f"{path}:{lineno}: alias has no tokens")
        forms.setdefault(entity, {})[alias] = None
    return {ent: tuple(aliases) for ent, aliases in forms.items()}


# ---------------------------------------------------------------------------
# Distant supervision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmbiguousSentence:
    """A sentence whose entity mentions match more than one KG triple."""

    index: int
    tokens: tuple[str, ...]
    triples: tuple[Triple, ...]


def match_sentence(
    kg: KnowledgeGraph, tokens: Sequence[str]
) -> list[Triple]:
    """KG triples supported by this sentence's entity mentions, sorted.

    Every alias occurrence is a candidate mention. Candidates claim spans in
    the order (longest alias, alias, entity, position), skipping any that
    overlaps a span already claimed.
    """
    index = kg.alignment_index
    lowered = [t.lower() for t in tokens]
    candidates = []
    for start, first in enumerate(lowered):
        for width in index.widths.get(first, ()):
            if start + width > len(lowered):
                break
            alias = tuple(lowered[start:start + width])
            for entity in index.aliases.get(alias, ()):
                candidates.append((-width, alias, entity, start))
    candidates.sort()
    taken = [False] * len(lowered)
    mentions: dict[str, int] = {}
    for neg_width, _, entity, start in candidates:
        end = start - neg_width
        if not any(taken[start:end]):
            taken[start:end] = [True] * (end - start)
            mentions[entity] = mentions.get(entity, 0) + 1
    return sorted(
        tr
        for subject in mentions
        for tr in index.by_subject.get(subject, ())
        if (mentions[subject] >= 2 if tr.object == subject else tr.object in mentions)
    )


def distant_supervise(
    kg: KnowledgeGraph,
    sentences: Iterable[Sequence[str]],
    keep_ambiguous: bool = False,
) -> tuple[list[AnnotatedExample], list[AmbiguousSentence]]:
    """Pair sentences with KG triples via surface-form co-occurrence.

    A sentence matching exactly one triple becomes an example; sentences
    matching several go to the ambiguity report and are excluded unless
    keep_ambiguous re-includes them as one example per matching triple.
    No-match sentences are silently dropped. ``sentences`` is read once, one
    sentence at a time, so it may be a stream.
    """
    examples: list[AnnotatedExample] = []
    report: list[AmbiguousSentence] = []
    for i, sent in enumerate(sentences):
        matched = match_sentence(kg, sent)
        toks = tuple(t.lower() for t in sent)
        if len(matched) == 1:
            examples.append(AnnotatedExample(toks, matched[0], f"ds:{i}"))
        elif len(matched) > 1:
            report.append(AmbiguousSentence(i, toks, tuple(matched)))
            if keep_ambiguous:
                for j, tr in enumerate(matched):
                    examples.append(AnnotatedExample(toks, tr, f"ds:{i}:{j}"))
    return examples, report
