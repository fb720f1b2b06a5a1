"""text2triple: translate a sentence into one knowledge-graph triple.

A from-scratch attention LSTM encoder-decoder whose three decoding steps are
masked to entity/predicate/entity sub-vocabularies, initialized from
pre-trained word vectors and TransE knowledge-graph embeddings, with the
full distant-supervision data pipeline and strict exact-match F1 scoring.
"""

from .corpus import (
    AnnotatedExample,
    Dataset,
    KnowledgeGraph,
    Triple,
    distant_supervise,
)
from .embeddings import (
    KgEmbeddings,
    KgRows,
    TransEConfig,
    link_prediction_eval,
    negative_sample,
    transe_score,
    transe_train,
    word_init_table,
)
from .scoring import ErrorCategory, EvalReport, error_taxonomy, evaluate
from .model import (
    DecodeResult,
    ModelConfig,
    ModelParams,
    forward_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    translate_beam,
    translate_greedy,
    translate_greedy_batch,
)
from .numerics import grad_check_fd, make_rng
from .vocab import (
    TripleVocab,
    WordVocab,
    build_kg_vocab,
    build_word_vocab,
    decode_triple,
    encode_sentence,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedExample",
    "Dataset",
    "DecodeResult",
    "ErrorCategory",
    "EvalReport",
    "KgEmbeddings",
    "KgRows",
    "KnowledgeGraph",
    "ModelConfig",
    "ModelParams",
    "TransEConfig",
    "Triple",
    "TripleVocab",
    "WordVocab",
    "build_kg_vocab",
    "build_word_vocab",
    "decode_triple",
    "distant_supervise",
    "encode_sentence",
    "error_taxonomy",
    "evaluate",
    "forward_loss",
    "grad_check_fd",
    "link_prediction_eval",
    "load_checkpoint",
    "make_rng",
    "negative_sample",
    "save_checkpoint",
    "tokenize",
    "train",
    "transe_score",
    "transe_train",
    "translate_beam",
    "translate_greedy",
    "translate_greedy_batch",
    "word_init_table",
]
