"""Command-line entry point wiring the whole pipeline.

Sub-commands: build-vocab, kg-embed, ds-align, train, eval, translate,
ablation and make-synthetic. ablation takes train's training options and
trains and scores each cell of its flag grid with train's and eval's own
code; it reads its inputs once, and its cells differ only in their flags
and their seeded init draws. Every run resolves its configuration from
defaults, then an optional flat key=value config file, then command-line
flags (flags win), logs the resolved result to stderr, and draws all
randomness from --seed, so identical inputs produce byte-identical outputs.
Progress and wall-clock chatter go to stderr only; files and stdout stay
deterministic.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator, NamedTuple

from . import corpus, embeddings, model, scoring, synthetic, vocab
from .corpus import DataError, Dataset, KnowledgeGraph, Triple
from .model import ModelConfig

logger = logging.getLogger("text2triple")


def _parse_flags(flag_spec: str) -> dict[str, bool]:
    """--flags A,W,G (or 'none') -> ModelConfig flag overrides."""
    values = {name: False for name in ModelConfig.FLAGS.values()}
    flag_spec = flag_spec.strip()
    if flag_spec and flag_spec.lower() != "none":
        for part in flag_spec.split(","):
            key = part.strip().upper()
            if key not in ModelConfig.FLAGS:
                raise ValueError(f"unknown ablation flag {part!r} "
                                 f"(expected {', '.join(ModelConfig.FLAGS)})")
            values[ModelConfig.FLAGS[key]] = True
    return values


def parse_config_file(path) -> dict[str, tuple[int, str]]:
    """Flat key=value lines as key -> (line number, value); blank lines and
    # comments are ignored, and a key may appear once."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in vocab.read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in out:
            raise DataError(f"{path}:{lineno}: key {key!r} repeated (first at line {out[key][0]})")
        out[key] = (lineno, value.strip())
    return out


_CONFIG_DEFAULTS = {f.name: f.default for f in fields(ModelConfig)}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
_PARSERS = {
    bool: ("a boolean (1/0, true/false, yes/no, on/off)", lambda v: _BOOLEANS[v.lower()]),
    int: ("an integer", int),
    float: ("a number", float),
    tuple: ("comma-separated numbers", lambda v: tuple(float(w) for w in v.split(","))),
}


def _coerce(key: str, value: str):
    """A config-file value parsed by the type of its ModelConfig field's default."""
    kind, parse = _PARSERS[type(_CONFIG_DEFAULTS[key])]
    try:
        return parse(value)
    except (KeyError, ValueError):
        raise ValueError(f"{key}: expected {kind}, got {value!r}") from None


def resolve_model_config(args) -> ModelConfig:
    """Defaults, then config file, then explicit command-line flags."""
    values: dict = {}
    file_cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (lineno, raw) in file_cfg.items():
        if key != "flags" and key not in _CONFIG_DEFAULTS:
            raise DataError(f"unknown config key {key!r} in {args.config}")
        if key in ModelConfig.FLAGS.values() and "flags" in file_cfg:
            raise DataError(f"{args.config}:{lineno}: key {key!r} conflicts with 'flags' "
                            f"(line {file_cfg['flags'][0]})")
        try:
            if key == "flags":
                values.update(_parse_flags(raw))
            else:
                values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise DataError(f"{args.config}:{lineno}: {exc}") from None
    if getattr(args, "epochs", None) is not None:
        values["epochs"] = args.epochs
    if getattr(args, "flags", None) is not None:
        values.update(_parse_flags(args.flags))
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    config = ModelConfig(**values)
    resolved = " ".join(f"{k}={v}" for k, v in sorted(vars(config).items()))
    logger.info("resolved config: %s", resolved)
    return config


def _read_sentences(path) -> Iterator[list[str]]:
    """Tokenized non-blank lines, read from the file one at a time."""
    for _, line in vocab.read_lines(path):
        # str.splitlines also breaks at form feeds and Unicode line
        # separators, which read_lines does not.
        for part in line.splitlines():
            if part.strip():
                yield vocab.tokenize(part)


def _write_into(out_dir, files: dict[str, str]) -> None:
    """Create out_dir, then write each named file in it through one write_files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.write_files({out / name: text for name, text in files.items()})


# ---------------------------------------------------------------------------
# Sub-command handlers
# ---------------------------------------------------------------------------


_VOCAB_FILES = ("words.vocab", "entities.vocab", "predicates.vocab")
_SYNTHETIC_FILES = ("train.jsonl", "dev.jsonl", "test.jsonl", "kg.tsv", "surface.tsv", "words.vec")


def _cmd_build_vocab(args) -> int:
    if str(args.corpus).endswith(".jsonl"):
        sentences = [list(ex.tokens) for ex in corpus.load_examples(args.corpus)]
    else:
        sentences = _read_sentences(args.corpus)
    wv = vocab.build_word_vocab(sentences, min_count=args.min_count)
    tv = vocab.build_kg_vocab(corpus.load_kg_file(args.kg))
    tables = (wv.tokens, tv.entities, tv.predicates)
    _write_into(args.out, {name: vocab.symbols_text(table)
                           for name, table in zip(_VOCAB_FILES, tables, strict=True)})
    print(f"words={len(wv)} entities={len(tv.entities)} predicates={len(tv.predicates)}")
    return 0


def _cmd_kg_embed(args) -> int:
    kg = KnowledgeGraph(corpus.load_kg_file(args.kg))
    config = embeddings.TransEConfig(
        **{f.name: getattr(args, f.name) for f in fields(embeddings.TransEConfig)}
    )
    vocab.check_symbols(sorted({symbol for tr in kg.triples for symbol in tr}))
    emb = embeddings.transe_train(kg, config)
    _write_into(args.out, embeddings.kg_embedding_files(emb, config))
    mean_rank, hits = embeddings.link_prediction_eval(emb, sorted(kg.triples))
    print(f"entities={len(emb.vocab.entities)} relations={len(emb.vocab.predicates)} "
          f"mean_rank={mean_rank:.6f} hits@1={hits:.6f}")
    return 0


def _cmd_ds_align(args) -> int:
    kg = KnowledgeGraph(
        corpus.load_kg_file(args.kg), corpus.load_surface_forms(args.surface_forms)
    )
    n_sentences = 0

    def counted(sentences):
        nonlocal n_sentences
        for tokens in sentences:
            n_sentences += 1
            yield tokens

    examples, ambiguous = corpus.distant_supervise(
        kg, counted(_read_sentences(args.sentences)), keep_ambiguous=args.keep_ambiguous
    )
    files = {args.out: corpus.examples_text(examples)}
    if args.ambiguity_report:
        files[args.ambiguity_report] = corpus.jsonl_text(
            {"index": e.index, "tokens": list(e.tokens), "triples": [list(t) for t in e.triples]}
            for e in ambiguous
        )
    vocab.write_files(files)
    print(f"examples={len(examples)} ambiguous={len(ambiguous)} "
          f"sentences={n_sentences}")
    return 0


def _check_flag_inputs(args, config: ModelConfig) -> None:
    """Refuse a run that sets a flag without the vector file it initializes from."""
    for letter, name in ModelConfig.FLAGS.items():
        dest = {"use_word_init": "word_vectors", "use_kg_init": "kg_embeddings"}.get(name)
        if dest and getattr(config, name) and not getattr(args, dest):
            raise DataError(f"flag {letter} set but --{dest.replace('_', '-')} not given")


class _TrainingInputs(NamedTuple):
    """What every training run of one command shares, loaded once."""

    word_vocab: vocab.WordVocab
    tvocab: vocab.TripleVocab
    kg_emb: embeddings.KgEmbeddings | None
    word_vectors: tuple | None  # read_vector_file's (symbols, table)


def _training_inputs(args, dataset: Dataset, configs: list[ModelConfig]) -> _TrainingInputs:
    """Load --kg-embeddings, build the vocabularies and, when a run
    initializes from them, read --word-vectors. The configs differ only in
    flags and seed, so one check of the KG embeddings' dim covers them all."""
    kg_emb = embeddings.load_kg_embeddings(args.kg_embeddings) if args.kg_embeddings else None
    kg_dim = configs[0].kg_dim
    if any(config.use_kg_init for config in configs) and kg_emb.dim != kg_dim:
        raise ValueError(f"KG embedding dim {kg_emb.dim} != decoder embedding dim {kg_dim}")
    word_vocab = vocab.build_word_vocab(
        [list(ex.tokens) for ex in dataset.train], min_count=args.min_count
    )
    # The KG embeddings' vocabulary is the decoder's target vocabulary;
    # without them it is built from the gold triples seen.
    tvocab = kg_emb.vocab if kg_emb is not None else vocab.build_kg_vocab(
        ex.gold for ex in dataset.train + dataset.dev
    )
    word_vectors = None
    if any(config.use_word_init for config in configs):
        word_vectors = embeddings.read_vector_file(args.word_vectors, configs[0].word_dim)
    return _TrainingInputs(word_vocab, tvocab, kg_emb, word_vectors)


def _run_training(inputs: _TrainingInputs, config: ModelConfig, dataset: Dataset):
    word_vocab, tvocab, kg_emb, word_vectors = inputs
    rng = model.make_rng(config.seed + 1)  # init-table draws, separate from training
    word_init = None
    if config.use_word_init:
        word_init, coverage = embeddings.word_init_table(*word_vectors, word_vocab, rng)
        logger.info("word-vector coverage: %.1f%%", 100 * coverage)
    kg_init = None
    if config.use_kg_init:
        kg_init, coverage = embeddings.decoder_init_table(
            kg_emb, tvocab, config.kg_dim, rng
        )
        logger.info("kg-embedding coverage: %.1f%%", 100 * coverage)
    return model.train(dataset, word_vocab, tvocab, config,
                       word_init=word_init, kg_init=kg_init)


def _format_epoch_line(stats: model.EpochStats) -> str:
    dev = "na" if stats.dev_f1 is None else f"{stats.dev_f1:.6f}"
    return f"epoch={stats.epoch}\ttrain_loss={stats.train_loss:.6f}\tdev_f1={dev}"


def _cmd_train(args) -> int:
    config = resolve_model_config(args)
    _check_flag_inputs(args, config)
    dataset = Dataset(
        train=corpus.load_examples(args.train),
        dev=corpus.load_examples(args.dev) if args.dev else [],
    )
    inputs = _training_inputs(args, dataset, [config])
    result = _run_training(inputs, config, dataset)
    log_lines = [_format_epoch_line(s) for s in result.log]
    files = {args.out: model.checkpoint_bytes(result.params, config, inputs.word_vocab,
                                              inputs.tvocab)}
    if args.log:
        files[args.log] = "\n".join(log_lines) + "\n"
    vocab.write_files(files)
    if not args.log:
        for line in log_lines:
            print(line)
    if result.aborted:
        print("training aborted on non-finite loss; last good checkpoint kept",
              file=sys.stderr)
        return 1
    return 0


def _predict(examples, params, word_vocab, tvocab, config) -> list[Triple]:
    """The greedy triple for each example's sentence."""
    return [r.triple for r in model.translate_greedy_batch(
        [ex.tokens for ex in examples], params, word_vocab, tvocab, config)]


def _cmd_eval(args) -> int:
    params, config, word_vocab, tvocab = model.load_checkpoint(args.checkpoint)
    test = corpus.load_examples(args.test)
    kg = KnowledgeGraph(corpus.load_kg_file(args.kg)) if args.kg else None
    preds = _predict(test, params, word_vocab, tvocab, config)
    golds = [ex.gold for ex in test]
    report = scoring.evaluate(preds, golds)
    report.error_counts = scoring.error_taxonomy(preds, golds, tvocab, kg)
    if args.report:
        vocab.write_files({args.report: "\n".join(scoring.report_records(report)) + "\n"})
    print(scoring.format_report(report))
    return 0


def _print_translation(result: model.DecodeResult, tokens: list[str], verbose: bool) -> None:
    print("\t".join(result.triple))
    if verbose:
        logps = " ".join(f"{v:.4f}" for v in result.step_logprobs)
        print(f"log-probs: {logps} (total {result.total_logprob:.4f})")
        if result.attention is not None:
            for slot, row in zip(("subject", "predicate", "object"), result.attention):
                top = tokens[int(row.argmax())] if tokens else "?"
                print(f"attention[{slot}]: top token {top!r} ({row.max():.3f})")


def _cmd_translate(args) -> int:
    params, config, word_vocab, tvocab = model.load_checkpoint(args.checkpoint)

    def translate_line(line: str, verbose: bool) -> None:
        tokens = vocab.tokenize(line)
        if not tokens:
            raise ValueError("no tokens in input")
        result = model.translate_greedy(tokens, params, word_vocab, tvocab, config)
        if result.n_unk == len(tokens):
            print("warning: every input token is out of vocabulary", file=sys.stderr)
        _print_translation(result, tokens, verbose)

    if args.text is not None:
        translate_line(args.text, verbose=False)
        return 0
    # Interactive loop: one sentence per line, EOF exits cleanly.
    while True:
        try:
            line = input("> ")
        except EOFError:
            break
        if not line.strip():
            continue
        try:
            translate_line(line, verbose=True)
        except Exception as exc:  # keep the loop alive on bad input
            print(f"warning: {exc}", file=sys.stderr)
    return 0


def _cmd_ablation(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ValueError(f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
    for i, seed in enumerate(seeds):
        if seed in seeds[:i]:
            raise ValueError(f"--seeds names seed {seed} twice")
    base = resolve_model_config(args)
    # label -> one config per seed; a flag set sets all three flags, whatever --config says
    grid: dict[str, list[ModelConfig]] = {}
    for flag_set in args.grid.split(";"):
        configs = [replace(base, **_parse_flags(flag_set), seed=seed) for seed in seeds]
        label = configs[0].flag_label()
        if label in grid:
            raise ValueError(f"ablation grid names flag set {label} twice")
        grid[label] = configs
    for configs in grid.values():
        _check_flag_inputs(args, configs[0])
    dataset = Dataset(
        train=corpus.load_examples(args.train),
        dev=corpus.load_examples(args.dev) if args.dev else [],
        test=corpus.load_examples(args.test),
    )
    inputs = _training_inputs(args, dataset, [c for configs in grid.values() for c in configs])
    golds = [ex.gold for ex in dataset.test]
    results: dict[str, dict[str, list[float]]] = {}
    dataset_label = Path(args.test).stem
    for label, configs in grid.items():
        scores: list[float] = []
        for config in configs:
            result = _run_training(inputs, config, dataset)
            preds = _predict(dataset.test, result.params, inputs.word_vocab, inputs.tvocab,
                             config)
            scores.append(scoring.evaluate(preds, golds).f1)
            logger.info("ablation %s seed %d: f1=%.4f", label, config.seed, scores[-1])
        results[label] = {dataset_label: scores}
    grid_text = scoring.format_ablation_grid(results)
    if args.report:
        vocab.write_files({args.report: grid_text + "\n"})
    print(grid_text)
    return 0


def _cmd_make_synthetic(args) -> int:
    """Generate a synthetic world's files (handy fixture for the pipeline)."""
    world = (
        synthetic.make_hard_world(seed=args.seed, word_dim=args.word_dim)
        if args.hard
        else synthetic.make_easy_world(seed=args.seed, word_dim=args.word_dim)
    )
    tokens = sorted(world.word_vectors)
    texts = (
        corpus.examples_text(world.train),
        corpus.examples_text(world.dev),
        corpus.examples_text(world.test),
        "".join("\t".join(tr) + "\n" for tr in sorted(world.kg.triples)),
        "".join(
            f"{ent}\t{' '.join(alias)}\n"
            for ent, aliases in sorted(world.kg.surface_forms.items()) for alias in aliases
        ),
        embeddings.vector_text(tokens, [world.word_vectors[t] for t in tokens]),
    )
    _write_into(args.out, dict(zip(_SYNTHETIC_FILES, texts, strict=True)))
    print(f"train={len(world.train)} dev={len(world.dev)} test={len(world.test)} "
          f"kg={len(world.kg.triples)}")
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


_KG_FILES = (embeddings.ENTITIES_FILE, embeddings.RELATIONS_FILE, embeddings.MANIFEST_FILE)
# (command, dest) -> the files the command writes or reads in that directory option
_DIRECTORY_FILES = {
    ("build-vocab", "out"): _VOCAB_FILES, ("kg-embed", "out"): _KG_FILES,
    ("make-synthetic", "out"): _SYNTHETIC_FILES,
    ("train", "kg_embeddings"): _KG_FILES, ("ablation", "kg_embeddings"): _KG_FILES,
}


def _check_distinct_outputs(args) -> None:
    """Refuse a run one of whose output files resolves to another output or
    to an input file, before it starts. A directory option stands for itself
    and for each file the command writes or reads in it."""
    outputs = ("out", "log", "ambiguity_report", "report")
    inputs = ("train", "dev", "test", "kg", "surface_forms", "sentences", "corpus", "checkpoint",
              "config", "word_vectors", "kg_embeddings")
    seen: dict[str, str] = {}  # resolved output path -> the option and path that named it
    for dest in (*outputs, *inputs):
        path = getattr(args, dest, None)
        if path is None:
            continue
        option = f"--{dest.replace('_', '-')} {path}"
        files = [(option, path)] + [(f"{option} ({name})", os.path.join(path, name))
                                    for name in _DIRECTORY_FILES.get((args.command, dest), ())]
        for named, file in files:
            real = os.path.realpath(file)
            if real in seen:
                raise ValueError(f"{seen[real]} and {named} name the same file")
            if dest in outputs:
                seen[real] = named


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="text2triple",
        description="Translate sentences into knowledge-graph triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="build word and KG symbol tables")
    p.add_argument("--corpus", required=True, help="dataset .jsonl or raw sentence file")
    p.add_argument("--kg", required=True, help="KG triples TSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.set_defaults(handler=_cmd_build_vocab)

    p = sub.add_parser("kg-embed", help="train TransE embeddings on a KG")
    p.add_argument("--kg", required=True)
    for f in fields(embeddings.TransEConfig):  # one flag per field, defaults and all
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=f.default, dest=f.name)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(handler=_cmd_kg_embed)

    p = sub.add_parser("ds-align", help="distant supervision alignment")
    p.add_argument("--kg", required=True)
    p.add_argument("--surface-forms", required=True, dest="surface_forms")
    p.add_argument("--sentences", required=True, help="one sentence per line")
    p.add_argument("--out", required=True, help="output dataset .jsonl")
    p.add_argument("--keep-ambiguous", action="store_true", dest="keep_ambiguous")
    p.add_argument("--ambiguity-report", default=None, dest="ambiguity_report")
    p.set_defaults(handler=_cmd_ds_align)

    # train's training inputs, which ablation takes too
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--config", default=None, help="flat key=value config file")
    training.add_argument("--train", required=True)
    training.add_argument("--dev", default=None)
    training.add_argument("--word-vectors", default=None, dest="word_vectors")
    training.add_argument("--kg-embeddings", default=None, dest="kg_embeddings")
    training.add_argument("--epochs", type=int, default=None)
    training.add_argument("--min-count", type=int, default=1, dest="min_count")

    p = sub.add_parser("train", parents=[training], help="train the translator")
    p.add_argument("--flags", default=None, help="ablation flags, e.g. A,W,G or none")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", default=None, help="training log path (default stdout)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--kg", default=None, help="KG TSV for the error taxonomy")
    p.add_argument("--report", default=None, help="machine-readable report path")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("translate", help="translate one sentence or run a REPL")
    p.add_argument("--checkpoint", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", default=None)
    group.add_argument("--interactive", action="store_true")
    p.set_defaults(handler=_cmd_translate)

    p = sub.add_parser("ablation", parents=[training], help="train/evaluate a flag grid")
    p.add_argument("--test", required=True)
    p.add_argument("--grid", default="none;A;A,W;A,W,G",
                   help="semicolon-separated flag sets")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_ablation)

    p = sub.add_parser("make-synthetic", help="emit a synthetic world's files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hard", action="store_true")
    p.add_argument("--word-dim", type=int, default=16, dest="word_dim")
    p.set_defaults(handler=_cmd_make_synthetic)

    return parser


def main(argv=None) -> int:
    """Parse argv and run the sub-command; exit code 0/1/2, never raises."""
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    settings = {k: v for k, v in vars(args).items() if k != "handler"}
    logger.info("run settings: %s", " ".join(f"{k}={v}" for k, v in sorted(settings.items())))
    try:
        _check_distinct_outputs(args)
        return args.handler(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
