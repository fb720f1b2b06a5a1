"""Embedding-table initialization: TransE for the decoder, word vectors for
the encoder.

TransE represents a relation as a vector translation and scores a triple by
the dissimilarity ||h + r - t|| (L1 or L2). Training minimizes the margin
ranking loss sum(max(0, margin + score(pos) - score(neg))) with filtered
uniform corruption and renormalizes entity rows to the unit sphere after
every batch. It runs on one stacked table of entity and relation rows:
``KgRows`` maps the KG to row ids once per run, on the symbol tables the KG
caches (``kg.vocab``), negatives are drawn a span of minibatches at a time
and filtered against its integer membership codes, and each minibatch is
one gather and one scatter. ``_score_rows`` is the one L2 rule (numpy's own
sum, no BLAS) for scores, gradients and renormalization.
Word vectors are loaded from a textual file; vocabulary rows the file does
not cover fall back to uniform random init.

``KgEmbeddings`` is frozen, holds read-only copies of the tables passed
in, and caches ``||e||^2`` on first use. No view a caller took of those
arrays can write the copies, so only a caller who turns a copy's writing
back on can make that cache stale; nothing in this package does.

Link prediction ranks every entity for each head and tail query. Under L2
it ranks by ``||e||^2 - 2 e.a``, which orders entities as the distance
``||a - e||`` does, and scores ``LINK_CHUNK`` triples' queries with one GEMM;
``||e||^2`` is computed once per ``KgEmbeddings``, on first use.
Under L1 it evaluates the direct distances one query at a time into one
reused ``(E, d)`` buffer. The L2 form rounds differently from the direct
distance, so entities whose distances agree to within rounding may swap.

Word vectors and KG embeddings share one text format, read by
``read_vector_file`` and rendered by ``vector_text``: an optional
``count dim`` header whose count is the number of rows, then
``symbol v1 .. v_d`` per line with finite values. The reader returns every
row in file order; each user applies its own policy. ``word_init_table``
keeps the first row of a repeated token and accepts an empty file;
``load_kg_embeddings`` reads both files at its manifest's dim and rejects a
repeated symbol and a file with no vectors.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import KnowledgeGraph, Triple
from .numerics import add_rows, check_fields, make_rng, uniform_init
from .vocab import RESERVED_TOKENS, SymbolError, TripleVocab, WordVocab
from .vocab import check_symbols, read_lines

__all__ = [
    "KgEmbeddings",
    "KgRows",
    "LINK_CHUNK",
    "NEGATIVE_SPAN",
    "TransEConfig",
    "decoder_init_table",
    "kg_embedding_files",
    "link_prediction_eval",
    "load_kg_embeddings",
    "negative_sample",
    "read_vector_file",
    "transe_score",
    "transe_train",
    "vector_text",
    "word_init_table",
]

logger = logging.getLogger(__name__)

_NORMS = ("L1", "L2")


def _check_norm(norm) -> None:
    if norm not in _NORMS:
        raise ValueError(f"norm must be one of {_NORMS}, got {norm!r}")


@dataclass
class TransEConfig:
    dim: int = 64
    margin: float = 1.0
    lr: float = 0.01
    epochs: int = 200
    batch_size: int = 32
    norm: str = "L2"
    seed: int = 0

    def __post_init__(self):
        check_fields(self, positive=("margin", "lr"))
        _check_norm(self.norm)


@dataclass(frozen=True)
class KgEmbeddings:
    """Entity and relation vector tables: row i of ``entity_table`` is
    ``vocab.entities[i]``, row i of ``relation_table`` is ``vocab.predicates[i]``.

    Frozen: rebinding a field is refused, and the tables are read-only
    copies of the arrays passed in, so no view of those arrays can write
    them. ``entity_sq_norms`` is cached on first use; only a caller who
    turns a table's writing back on can make it stale.
    """

    vocab: TripleVocab
    entity_table: np.ndarray
    relation_table: np.ndarray
    norm: str

    def __post_init__(self):
        _check_norm(self.norm)
        for name in ("entity_table", "relation_table"):
            table = np.array(getattr(self, name))
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        shapes = (self.entity_table.shape, self.relation_table.shape)
        if shapes != ((len(self.vocab.entities), self.dim),
                      (len(self.vocab.predicates), self.dim)):
            raise ValueError(f"table shapes {shapes} do not give one row per symbol, "
                             "all of one width")

    @property
    def dim(self) -> int:
        return self.entity_table.shape[-1]

    @functools.cached_property
    def entity_sq_norms(self) -> np.ndarray:
        """Read-only ``||e||^2`` of every entity row, computed on first use."""
        sq = np.einsum("ij,ij->i", self.entity_table, self.entity_table)
        sq.setflags(write=False)
        return sq

    def entity_vec(self, symbol: str) -> np.ndarray:
        return self.entity_table[self.vocab.entity_rows[symbol]]

    def relation_vec(self, symbol: str) -> np.ndarray:
        return self.relation_table[self.vocab.predicate_rows[symbol]]


def _score_rows(rows: np.ndarray, norm: str) -> np.ndarray:
    if norm == "L1":
        return np.abs(rows).sum(axis=-1)
    return np.sqrt((rows * rows).sum(axis=-1))


def transe_score(h: np.ndarray, r: np.ndarray, t: np.ndarray, norm: str = "L2") -> float:
    """Dissimilarity ||h + r - t|| under the given norm; 0 means exact fit."""
    _check_norm(norm)
    h, r, t = (np.asarray(v, dtype=np.float64) for v in (h, r, t))
    if not (h.shape == r.shape == t.shape) or h.ndim != 1:
        raise ValueError(f"vector shapes differ: {h.shape}, {r.shape}, {t.shape}")
    return float(_score_rows((h + r - t)[None, :], norm)[0])


def _summed_rows(
    ids: np.ndarray, grads: np.ndarray, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, ascending, and for each the sum of its ``grads`` rows.

    Each sum adds its rows one at a time in the order given, starting from
    -0.0, so a row's first addend passes through exactly (sign of zero
    included) and the rounding matches a sequential per-triple sum. ``ids``
    index a table of ``n_rows`` rows; a mask over it finds the distinct ones
    without the sort ``np.unique`` would do.
    """
    touched = np.zeros(n_rows, dtype=bool)
    touched[ids] = True
    rows = np.flatnonzero(touched)
    slot = np.empty(n_rows, dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    acc = np.full((len(rows), grads.shape[1]), -0.0, dtype=grads.dtype)
    add_rows(acc, slot[ids], grads)
    return rows, acc


_MAX_DRAWS = 100  # rejected draws of one triple before it enumerates instead


@dataclass(frozen=True, eq=False)
class KgRows:
    """A KG on the rows of its own symbol tables, ``kg.vocab``, the integer
    form TransE trains on.

    Rows follow ``kg.vocab``, so entity row i is ``kg.entity_list()[i]``.
    ``ids`` holds the (head, relation, tail) rows of ``sorted(kg.triples)``,
    in that order. ``codes`` holds each triple's ``(h*R + r)*N + t``, for R
    relation and N entity rows, so a candidate's membership is one lookup of
    a Python int. ``bounds`` is ``(2, N)`` tiled ``_MAX_DRAWS`` times, the
    bounds of the largest chunk of (coin, entity) draws ``negative_sample``
    makes.
    """

    kg: KnowledgeGraph
    vocab: TripleVocab
    ids: np.ndarray
    codes: frozenset[int]
    bounds: np.ndarray

    @classmethod
    def of(cls, kg: KnowledgeGraph) -> KgRows:
        vocab = kg.vocab
        erows, prows = vocab.entity_rows, vocab.predicate_rows
        ids = np.array([x for s, p, o in kg.triples for x in (erows[s], prows[p], erows[o])],
                       dtype=np.intp).reshape(-1, 3)
        ids = ids[np.lexsort(ids.T[::-1])]  # rows follow symbol order: sorted(kg.triples)
        n_rel, n_ent = len(vocab.predicates), len(vocab.entities)
        # int64 codes unless N*N*R could overflow them; object arrays hold Python ints
        h, r, t = ids.T.astype(np.int64 if n_ent * n_ent * n_rel < 2**63 else object)
        codes = frozenset(((h * n_rel + r) * n_ent + t).tolist())
        return cls(kg, vocab, ids, codes, np.tile((2, n_ent), _MAX_DRAWS))


def negative_sample(batch: np.ndarray, kg_rows: KgRows, rng: np.random.Generator) -> np.ndarray:
    """One negative per (head, relation, tail) row of ``batch``, in order, as
    a ``(len(batch), 2)`` array of its (head, tail) rows: corrupt head or
    tail (fair coin) with a uniform KG entity, filtered.

    A drawn entity index is its entity row. A candidate whose code is in
    ``kg_rows.codes`` is a KG member and is redrawn for the same triple, so
    no negative is ever a true fact; the relation is never altered. After
    ``_MAX_DRAWS`` rejected draws a triple picks uniformly among its valid
    corruptions instead, and raises ``ValueError`` when it has none.

    The result and the generator's end state equal those of sampling each
    triple in turn with a scalar ``rng.integers(2)`` coin and
    ``rng.integers(len(kg.entity_list()))`` entity per draw. (coin, entity)
    pairs come from one ``integers`` call per chunk over a prefix of
    ``kg_rows.bounds``, which yields the same values as the alternating
    scalar calls. A chunk holds no more pairs than the open triples can
    accept, nor than the current triple can reject before its fallback, so
    every pair drawn is used and each fallback starts where the per-triple
    loop would. ``kg.entity_list()`` is read once per call, for its length.
    """
    n_ent = len(kg_rows.kg.entity_list())
    if n_ent < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    n_rel, codes = len(kg_rows.vocab.predicates), kg_rows.codes
    triples = batch.tolist()
    heads: list[int] = []
    tails: list[int] = []
    rejected = 0
    while len(heads) < len(triples):
        size = min(len(triples) - len(heads), _MAX_DRAWS - rejected)
        draws = rng.integers(0, kg_rows.bounds[:2 * size]).tolist()
        for coin, ent in zip(draws[::2], draws[1::2]):
            h, r, t = triples[len(heads)]
            if coin == 0:
                h = ent
            else:
                t = ent
            if (h * n_rel + r) * n_ent + t in codes:
                rejected += 1
            else:
                heads.append(h)
                tails.append(t)
                rejected = 0
        if rejected >= _MAX_DRAWS:
            h, t = _any_corruption(triples[len(heads)], kg_rows, rng)
            heads.append(h)
            tails.append(t)
            rejected = 0
    return np.array([heads, tails], dtype=np.intp).T


def _any_corruption(
    triple: Sequence[int], kg_rows: KgRows, rng: np.random.Generator
) -> tuple[int, int]:
    """A uniform pick among the (head, relation, tail) row triple's
    corruptions that are not KG members, as its (head, tail) rows. The
    candidates run over the entity rows, the head corruption before the tail
    one for each."""
    h, r, t = triple
    n_rel, n_ent = len(kg_rows.vocab.predicates), len(kg_rows.vocab.entities)
    valid = [(hc, tc) for e in range(n_ent) for hc, tc in ((e, t), (h, e))
             if (hc * n_rel + r) * n_ent + tc not in kg_rows.codes]
    if not valid:
        ents, rels = kg_rows.vocab.entities, kg_rows.vocab.predicates
        raise ValueError(f"no valid corruption exists for {Triple(ents[h], rels[r], ents[t])}")
    return valid[int(rng.integers(len(valid)))]


NEGATIVE_SPAN = 4096  # triples per negative_sample call, rounded down to whole minibatches


def transe_train(kg: KnowledgeGraph, config: TransEConfig) -> KgEmbeddings:
    """Margin-ranking SGD over the KG; deterministic given config.seed.

    The KG is mapped once to ``KgRows``: its triples as integer rows and its
    membership as integer codes. Training holds one ``(E + R, d)`` table,
    entity rows first, drawn uniform(-6/sqrt(d), 6/sqrt(d)) with rows
    normalized once by ``_score_rows``, and ``_transe_epochs`` trains it.
    """
    if not kg.triples:
        raise ValueError("cannot train TransE on an empty KG")
    kg_rows = KgRows.of(kg)
    rng = make_rng(config.seed)
    bound = 6.0 / math.sqrt(config.dim)
    n_rows = len(kg_rows.vocab.entities) + len(kg_rows.vocab.predicates)
    # entity rows, then relation rows: the values two separate draws would give
    table = rng.uniform(-bound, bound, (n_rows, config.dim))
    table /= np.maximum(_score_rows(table, "L2"), 1e-12)[:, None]
    return _transe_epochs(kg_rows, table, config, rng)


def _transe_epochs(
    kg_rows: KgRows, table: np.ndarray, config: TransEConfig, rng: np.random.Generator
) -> KgEmbeddings:
    """``config.epochs`` epochs of TransE from ``table``, an ``(E + R, d)``
    table on ``kg_rows``' rows, which it updates in place.

    Each epoch draws its negatives with one ``negative_sample`` call per
    ``NEGATIVE_SPAN`` triples, rounded down to whole minibatches, in epoch
    order and on the same RNG stream as one draw per triple (negatives do
    not depend on the tables). A minibatch is one gather of its triples'
    (h, t, hn, tn, E + r) rows, one pass that scores and differentiates
    them, and one scatter; each touched row's gradients are summed in
    per-triple order, so the tables equal a loop over the triples bit for
    bit. An L2 gradient divides each diff by the distance its hinge scored,
    and touched entity rows are renormalized by the same ``_score_rows``;
    no step calls BLAS, so the tables do not follow the OpenBLAS kernel. A
    batch with no active hinge leaves the tables bit-identical. Logs one
    INFO line at the end: epochs, triples, the seconds of the epochs,
    triples/s and the share of hinges active in the last epoch.
    """
    started = time.perf_counter()
    n_ent, n, size = len(kg_rows.vocab.entities), len(kg_rows.ids), config.batch_size
    span = max(NEGATIVE_SPAN // size, 1) * size
    # The finite-loss check below reports a diverging run; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            n_active = 0
            for lo in range(0, n, span):
                pos = kg_rows.ids[order[lo:lo + span]]
                # rows5[i] = table rows (h, t, hn, tn, E + r) of triple i and its negative
                rows5 = np.hstack([pos[:, ::2], negative_sample(pos, kg_rows, rng),
                                   pos[:, 1:2] + n_ent])
                for start in range(0, len(rows5), size):
                    batch = rows5[start:start + size]
                    h, t, hn, tn, r = table[batch.T]
                    diffs = np.array([h + r - t, hn + r - tn])
                    scores = _score_rows(diffs, config.norm)
                    hinge = config.margin + scores[0] - scores[1]
                    active = ~(hinge <= 0.0)  # a NaN hinge stays active: the loss check sees it
                    hinges = hinge[active].tolist()
                    if not hinges:
                        continue
                    n_active += len(hinges)
                    for value in hinges:
                        epoch_loss += value
                    if len(hinges) < len(hinge):  # a full mask would gather them unchanged
                        diffs, scores, batch = diffs[:, active], scores[:, active], batch[active]
                    if config.norm == "L1":
                        g_pos, g_neg = np.sign(diffs)
                    else:
                        g_pos, g_neg = diffs / np.maximum(scores, 1e-12)[..., None]
                    grads = np.stack([g_pos, -g_pos, -g_neg, g_neg, g_pos - g_neg], axis=1)
                    rows, step = _summed_rows(batch.ravel(),
                                              grads.reshape(-1, config.dim), len(table))
                    moved = table[rows] - config.lr * step
                    ent = moved[:np.searchsorted(rows, n_ent)]  # a view of the entity rows
                    ent /= np.maximum(_score_rows(ent, "L2"), 1e-12)[:, None]
                    table[rows] = moved
            if not math.isfinite(epoch_loss):
                raise RuntimeError(f"TransE loss became non-finite at epoch {epoch + 1}")
            if (epoch + 1) % 50 == 0 or epoch == 0:
                logger.debug("transe epoch %d loss %.4f", epoch + 1, epoch_loss)
    seconds = time.perf_counter() - started
    logger.info("transe: %d epochs over %d triples in %.3f s (%.0f triples/s), "
                "%.1f%% of hinges active in the last epoch", config.epochs, n, seconds,
                config.epochs * n / seconds, 100 * n_active / n)
    return KgEmbeddings(kg_rows.vocab, table[:n_ent], table[n_ent:], config.norm)


LINK_CHUNK = 128  # triples per L2 link-prediction GEMM


def _link_ranks(emb: KgEmbeddings, triples: Sequence[Triple]) -> np.ndarray:
    """(n, 2) ranks: row i holds triple i's tail rank, then its head rank.

    Every symbol is resolved before any query is scored. A rank is 1 plus
    the number of entities scored strictly below the true one.
    """
    if not triples:
        raise ValueError("link prediction needs at least one triple")
    if len(emb.vocab.entities) < 2:
        raise ValueError("link prediction needs at least 2 entities")
    erows, prows = emb.vocab.entity_rows, emb.vocab.predicate_rows
    try:
        ids = np.array([(erows[s], prows[p], erows[o]) for s, p, o in triples], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"symbol {exc.args[0]!r} has no embedding") from None
    E, R = emb.entity_table, emb.relation_table
    ranks = np.empty((len(ids), 2), dtype=np.intp)
    if emb.norm == "L1":
        buf = np.empty_like(E)
        for i, (h, r, t) in enumerate(ids.tolist()):
            np.subtract(E[h] + R[r], E, out=buf)
            tail_scores = np.abs(buf, out=buf).sum(axis=-1)
            np.add(E, R[r], out=buf)
            np.subtract(buf, E[t], out=buf)
            head_scores = np.abs(buf, out=buf).sum(axis=-1)
            ranks[i] = (1 + np.count_nonzero(tail_scores < tail_scores[t]),
                        1 + np.count_nonzero(head_scores < head_scores[h]))
        return ranks
    sq = emb.entity_sq_norms
    for lo in range(0, len(ids), LINK_CHUNK):
        chunk = ids[lo:lo + LINK_CHUNK]
        # Rows alternate tail and head query: -2a for a = h + r, then a = t - r.
        # Scaling by -2 is exact, so it gives the bits of scaling the scores.
        queries = E[chunk[:, ::2].ravel()]
        queries[0::2] += R[chunk[:, 1]]
        queries[1::2] -= R[chunk[:, 1]]
        queries *= -2.0
        scores = queries @ E.T
        scores += sq
        true_ids = chunk[:, 2::-2].ravel()  # t for a tail query, h for a head query
        truth = scores[np.arange(len(scores)), true_ids]
        below = np.count_nonzero(scores < truth[:, None], axis=1)
        ranks[lo:lo + LINK_CHUNK] = 1 + below.reshape(-1, 2)
    return ranks


def link_prediction_eval(emb: KgEmbeddings, triples: Iterable[Triple]) -> tuple[float, float]:
    """Mean rank and hits@1 over head and tail prediction.

    For each triple the true tail is ranked among all entities by the score
    of (h, r, .), and the true head symmetrically; both ranks count.

    L1 scores are the direct ``|(h + r) - e|`` and ``|(e + r) - t|``. L2
    ranks by ``||e||^2 - 2 e.a``, which orders entities as ``||a - e||``
    does (``||a||^2`` is the same for every candidate), with ``a = h + r``
    for tails and ``a = t - r`` for heads, one GEMM per chunk of queries,
    with ``||e||^2`` read from ``emb.entity_sq_norms``.
    Its rounding is not that of the direct distance, so two entities whose
    distances agree to within rounding may rank in either order.
    """
    ranks = _link_ranks(emb, list(triples))
    return int(ranks.sum()) / ranks.size, np.count_nonzero(ranks == 1) / ranks.size


# ---------------------------------------------------------------------------
# Textual vector files
# ---------------------------------------------------------------------------


def read_vector_file(path, dim: int | None = None) -> tuple[tuple[str, ...], np.ndarray]:
    """Every ``symbol v1 .. v_d`` row of a vector file, in file order.

    A two-field first line is the ``count dim`` header: both fields must be
    integers, its count must equal the number of rows in the file, and its
    dim must equal ``dim`` when one is given. Without ``dim`` the header, or
    else the first row, sets it. Every row must hold dim finite values.
    Returns (symbols, table); an empty file gives no symbols and a table with
    no rows.
    """
    symbols: list[str] = []
    rows: list[np.ndarray] = []
    header_count = None
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        if lineno == 1 and len(parts) == 2:
            try:
                header_count = int(parts[0])
                header_dim = int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:1: header must be 'count dim' integers, got {line.strip()!r}"
                ) from None
            if dim is not None and header_dim != dim:
                raise ValueError(f"{path}:1: header dimension {header_dim}, expected {dim}")
            dim = header_dim
            continue
        if dim is None:
            dim = len(parts) - 1
        if len(parts) - 1 != dim:
            raise ValueError(
                f"{path}:{lineno}: expected {dim} vector values, got {len(parts) - 1}"
            )
        try:
            row = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric vector value ({exc})") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{lineno}: non-finite vector value")
        symbols.append(parts[0])
        rows.append(row)
    if header_count is not None and header_count != len(rows):
        raise ValueError(f"{path}:1: header says {header_count} rows, file has {len(rows)}")
    table = np.vstack(rows) if rows else np.zeros((0, dim or 0))
    return tuple(symbols), table


def vector_text(symbols: Sequence[str], table) -> str:
    """A ``count dim`` header, then one ``symbol v1 .. v_d`` line per row."""
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or len(table) != len(symbols):
        raise ValueError(f"vector table shape {table.shape} does not fit {len(symbols)} symbols")
    check_symbols(symbols)
    return f"{len(symbols)} {table.shape[1]}\n" + "".join(
        sym + " " + " ".join(repr(float(v)) for v in row) + "\n"
        for sym, row in zip(symbols, table)
    )


def word_init_table(
    symbols: Sequence[str], vectors: np.ndarray, vocab: WordVocab, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Encoder embedding table from a word-vector file's rows, as
    read_vector_file returns them: file rows where covered, random elsewhere.

    Returns (table, coverage). Coverage is the fraction of non-reserved
    vocabulary tokens found in the file; PAD/UNK/BOS are always random-init.
    The first row of a repeated token wins, and an empty file covers nothing.
    """
    table = uniform_init((len(vocab), vectors.shape[1]), rng)
    by_token: dict[str, np.ndarray] = {}
    for token, row in zip(symbols, vectors):
        by_token.setdefault(token, row)
    covered = 0
    non_reserved = len(vocab) - len(RESERVED_TOKENS)
    for idx, token in enumerate(vocab.tokens):
        if idx < len(RESERVED_TOKENS):
            continue
        vec = by_token.get(token)
        if vec is not None:
            table[idx] = vec
            covered += 1
    coverage = covered / non_reserved if non_reserved else 0.0
    if coverage < 0.2:
        logger.warning(
            "word-vector coverage %.1f%% (%d/%d tokens); vocabulary mismatch?",
            100 * coverage, covered, non_reserved,
        )
    return table, coverage


def decoder_init_table(
    emb: KgEmbeddings, tvocab: TripleVocab, dim: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Decoder embedding table from TransE vectors.

    Entity vectors land at entity target ids and relation vectors at
    predicate ids; the BOS row and any symbol without a vector stay
    random-init. Returns (table, coverage over non-BOS ids).
    """
    if emb.dim != dim:
        raise ValueError(f"KG embedding dim {emb.dim} != decoder embedding dim {dim}")
    table = uniform_init((tvocab.n_targets, dim), rng)
    rows = [(tvocab.entity_id(s), emb.entity_vec(s))
            for s in tvocab.entities if emb.vocab.has_entity(s)]
    rows += [(tvocab.predicate_id(s), emb.relation_vec(s))
             for s in tvocab.predicates if emb.vocab.has_predicate(s)]
    for idx, vec in rows:
        table[idx] = vec
    return table, len(rows) / (tvocab.n_targets - 1)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

ENTITIES_FILE = "entities.vec"
RELATIONS_FILE = "relations.vec"
MANIFEST_FILE = "manifest.json"


def kg_embedding_files(emb: KgEmbeddings, config: TransEConfig) -> dict[str, str]:
    """File name -> text of entities.vec, relations.vec and a manifest with
    the settings, the files load_kg_embeddings reads from one directory."""
    manifest = {
        "dim": emb.dim,
        "norm": emb.norm,
        "margin": config.margin,
        "seed": config.seed,
        "entities": len(emb.vocab.entities),
        "relations": len(emb.vocab.predicates),
    }
    return {
        ENTITIES_FILE: vector_text(emb.vocab.entities, emb.entity_table),
        RELATIONS_FILE: vector_text(emb.vocab.predicates, emb.relation_table),
        MANIFEST_FILE: json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    }


def _read_manifest(path: Path) -> tuple[int, str]:
    """The (dim, norm) of a manifest that is a UTF-8 JSON object."""
    try:
        manifest = json.loads("\n".join(line for _, line in read_lines(path)))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(manifest).__name__}")
    dim, norm = manifest.get("dim"), manifest.get("norm")
    if type(dim) is not int:  # not isinstance: JSON true would pass as 1
        raise ValueError(f"{path}: dim must be an integer, got {dim!r}")
    try:
        _check_norm(norm)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return dim, norm


def load_kg_embeddings(in_dir) -> KgEmbeddings:
    """Read the tables of kg_embedding_files from a directory.

    Both vector files are read at the manifest's dim, and a symbol may
    appear in a file only once.
    """
    in_dir = Path(in_dir)
    dim, norm = _read_manifest(in_dir / MANIFEST_FILE)
    paths = {"entity": in_dir / ENTITIES_FILE, "predicate": in_dir / RELATIONS_FILE}
    tables = []
    for path in paths.values():
        symbols, table = read_vector_file(path, dim)
        if not symbols:
            raise ValueError(f"{path}: no vectors found")
        tables.append((symbols, table))
    (ents, etab), (rels, rtab) = tables
    try:
        return KgEmbeddings(TripleVocab(ents, rels), etab, rtab, norm)
    except SymbolError as exc:
        raise ValueError(f"{paths[exc.table]}: {exc}") from None
