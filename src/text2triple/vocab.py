"""Token and knowledge-graph symbol tables.

The word vocabulary maps source tokens to ids with PAD/UNK/BOS reserved. The
triple vocabulary unifies entity and predicate symbols into one target-id
space. It states the partition of that space once, as two tables built
with it: ``symbols``, the id -> symbol table that ``decode_triple`` reads,
and ``step_masks``, the decoder's three step masks stacked: step 1 and 3
may only emit entities, step 2 only predicates. Subjects and objects share
one entity table, so the step-1 and step-3 masks are identical.

Being the lowest module, it also holds what every file reader and writer
shares: ``read_lines``, ``write_files``, ``DataError`` and ``check_symbols``.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from dataclasses import dataclass, field
from collections import Counter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "BOS_ID",
    "BOS_TOKEN",
    "DataError",
    "PAD_ID",
    "PAD_TOKEN",
    "RESERVED_TOKENS",
    "SymbolError",
    "TripleVocab",
    "UNK_ID",
    "UNK_TOKEN",
    "WordVocab",
    "build_kg_vocab",
    "build_word_vocab",
    "check_symbols",
    "decode_triple",
    "encode_sentence",
    "read_lines",
    "symbols_text",
    "tokenize",
    "write_files",
]


class DataError(ValueError):
    """A data file failed validation; the message names the file and line."""


def read_lines(path) -> Iterator[tuple[int, str]]:
    r"""(line number, line without its break) for each line of a text file.

    The one text reader: the file is UTF-8, a leading byte-order mark is
    dropped, and lines break at \n, \r\n and \r. A byte that is not UTF-8
    raises DataError naming the file.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.removesuffix("\n")
        except UnicodeDecodeError:
            raise DataError(f"{path}: not valid UTF-8") from None


def write_files(files: Mapping[str | os.PathLike, str | bytes]) -> None:
    """The one file writer: bytes as given, text as UTF-8 with its line breaks
    as given, to every path or to none.

    A regular file (or a symlink's target) is written to ``.NAME.partial``
    beside it first; the temporaries replace their targets once all are
    written. A failure before that, a directory target included, removes
    them and names the caller's path. A device or FIFO is written in place
    after the renames, never renamed over. No fsync: the aim is no partial
    output on an error, not durability across a crash.
    """
    temps: dict[str, str] = {}  # temporary -> resolved target
    in_place = []
    try:
        for path, data in files.items():
            data = data.encode("utf-8") if isinstance(data, str) else data
            mode = os.stat(path).st_mode if os.path.exists(path) else stat.S_IFREG
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if not stat.S_ISREG(mode):
                in_place.append((path, data))
                continue
            real = os.path.realpath(path)
            tmp = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}.partial")
            with open(tmp, "wb") as fh:
                temps[tmp] = real
                fh.write(data)
    except BaseException as exc:
        for tmp in temps:
            os.remove(tmp)
        if isinstance(exc, OSError):  # name the caller's path, not a temporary
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    for tmp, real in temps.items():
        os.replace(tmp, real)
    for path, data in in_place:
        with open(path, "wb") as fh:
            fh.write(data)


def check_symbols(symbols: Iterable[str]) -> None:
    """The rule for symbols written out: non-empty, with no whitespace, so a
    line- or space-splitting reader reads each back as one symbol."""
    for s in symbols:
        if not s or any(ch.isspace() for ch in s):
            raise ValueError(f"symbol not serializable (empty or holds whitespace): {s!r}")


PAD_ID, UNK_ID, BOS_ID = 0, 1, 2
PAD_TOKEN, UNK_TOKEN, BOS_TOKEN = "<pad>", "<unk>", "<bos>"
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, BOS_TOKEN)

# Lowercase word runs; punctuation separates tokens and is dropped, internal
# apostrophes survive ("don't" stays one token).
_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class WordVocab:
    """token <-> id bijection with PAD=0, UNK=1, BOS=2 reserved; tokens are symbols."""

    tokens: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.tokens[:3]) != RESERVED_TOKENS:
            raise ValueError(f"word vocab must start with {RESERVED_TOKENS}")
        self._ids = _symbol_rows("word", self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)


def build_word_vocab(corpus: Iterable[Sequence[str]], min_count: int = 1) -> WordVocab:
    """Tokens with frequency >= min_count, ids by frequency desc then lexicographic."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for sent in corpus:
        counts.update(t for t in sent if t not in RESERVED_TOKENS)
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return WordVocab(RESERVED_TOKENS + tuple(kept))


def encode_sentence(tokens: Sequence[str], vocab: WordVocab) -> list[int]:
    """Per-token id lookup; unknown tokens map to UNK. Length preserved."""
    return [vocab.id_of(t) for t in tokens]


class SymbolError(ValueError):
    """A non-string, empty or repeated symbol in the "word", "entity" or "predicate" ``table``."""

    def __init__(self, table: str, message: str):
        super().__init__(message)
        self.table = table


def _symbol_rows(table: str, symbols: Sequence[str]) -> dict[str, int]:
    """symbol -> 0-based position, after the checks of SymbolError."""
    rows: dict[str, int] = {}
    for i, s in enumerate(symbols):
        if not isinstance(s, str):
            raise SymbolError(table, f"{table} symbol {s!r} is not a string")
        if not s:
            raise SymbolError(table, f"empty {table} symbol")
        if rows.setdefault(s, i) != i:
            raise SymbolError(table, f"duplicate {table} symbol {s!r}")
    return rows


@dataclass
class TripleVocab:
    """Entity and predicate tables sharing one target-id space.

    Target ids: 0 is BOS, 1..E are entities, E+1..E+P are predicates. The
    entity and predicate ranges are disjoint and together cover every
    non-BOS id; masks 1 and 3 both select the entity range.

    ``entity_rows`` and ``predicate_rows`` map a symbol to its 0-based
    position: its row in a KG embedding table, from which its id follows.
    ``symbols`` is the inverse, id -> symbol, with BOS_TOKEN at id 0.
    ``step_masks`` is the (3, n_targets) read-only stack of the step masks,
    row k - 1 for step k; ``step_mask(k)`` is its checked row view.
    """

    entities: tuple[str, ...]
    predicates: tuple[str, ...]
    entity_rows: dict[str, int] = field(init=False, repr=False, compare=False)
    predicate_rows: dict[str, int] = field(init=False, repr=False, compare=False)
    symbols: tuple[str, ...] = field(init=False, repr=False, compare=False)
    step_masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.entity_rows = _symbol_rows("entity", self.entities)
        self.predicate_rows = _symbol_rows("predicate", self.predicates)
        self.symbols = (BOS_TOKEN, *self.entities, *self.predicates)
        self.step_masks = np.zeros((3, self.n_targets), dtype=bool)
        self.step_masks[[0, 2], 1:1 + len(self.entities)] = True
        self.step_masks[1, 1 + len(self.entities):] = True
        self.step_masks.setflags(write=False)

    @property
    def n_targets(self) -> int:
        return 1 + len(self.entities) + len(self.predicates)

    @property
    def bos_id(self) -> int:
        return 0

    def entity_id(self, symbol: str) -> int:
        if symbol not in self.entity_rows:
            raise KeyError(f"unknown entity symbol: {symbol!r}")
        return 1 + self.entity_rows[symbol]

    def predicate_id(self, symbol: str) -> int:
        if symbol not in self.predicate_rows:
            raise KeyError(f"unknown predicate symbol: {symbol!r}")
        return 1 + len(self.entities) + self.predicate_rows[symbol]

    def has_entity(self, symbol: str) -> bool:
        return symbol in self.entity_rows

    def has_predicate(self, symbol: str) -> bool:
        return symbol in self.predicate_rows

    def is_entity_id(self, idx: int) -> bool:
        return 1 <= idx <= len(self.entities)

    def is_predicate_id(self, idx: int) -> bool:
        return len(self.entities) < idx < self.n_targets

    def step_mask(self, step: int) -> np.ndarray:
        """Read-only boolean mask over target ids allowed at decoding step 1, 2 or 3."""
        if step not in (1, 2, 3):
            raise ValueError(f"decoding step must be 1, 2 or 3, got {step}")
        return self.step_masks[step - 1]

    def encode_triple(self, subject: str, predicate: str, obj: str) -> tuple[int, int, int]:
        return (self.entity_id(subject), self.predicate_id(predicate), self.entity_id(obj))

    def has_triple_symbols(self, subject: str, predicate: str, obj: str) -> bool:
        return (subject in self.entity_rows and obj in self.entity_rows
                and predicate in self.predicate_rows)


def build_kg_vocab(triples) -> TripleVocab:
    """Entity/predicate tables from a set of (subject, predicate, object).

    Accepts any iterable of 3-tuples (corpus.Triple unpacks as one). Symbol
    order is lexicographic, which makes vocab construction deterministic.
    """
    entities: set[str] = set()
    predicates: set[str] = set()
    n = 0
    for t in triples:
        s, p, o = t
        if not (s and p and o):
            raise ValueError(f"triple with empty symbol: {(s, p, o)!r}")
        entities.add(s)
        entities.add(o)
        predicates.add(p)
        n += 1
    if n == 0:
        raise ValueError("cannot build a KG vocabulary from an empty triple set")
    return TripleVocab(tuple(sorted(entities)), tuple(sorted(predicates)))


def decode_triple(ids: Sequence[int], vocab: TripleVocab) -> tuple[str, str, str]:
    """Map three target ids back to (subject, predicate, object) symbols.

    Rejects ids in the wrong partition: that signals a masking bug upstream,
    not bad user input.
    """
    if len(ids) != 3:
        raise ValueError(f"expected exactly 3 target ids, got {len(ids)}")
    for slot, want_entity in ((0, True), (1, False), (2, True)):
        idx = ids[slot]
        ok = vocab.is_entity_id(idx) if want_entity else vocab.is_predicate_id(idx)
        if not ok:
            kind = "an entity" if want_entity else "a predicate"
            raise ValueError(f"target id {idx} in slot {slot} is not {kind} id")
    return tuple(vocab.symbols[idx] for idx in ids)


# ---------------------------------------------------------------------------
# Vocabulary files: one symbol per line, line number = id offset, UTF-8.
# build-vocab writes them for people to inspect; no command reads them back.
# ---------------------------------------------------------------------------


def symbols_text(symbols: Sequence[str]) -> str:
    """A vocabulary file's text: one symbol per line, each checked first."""
    check_symbols(symbols)
    return "\n".join(symbols) + "\n"
