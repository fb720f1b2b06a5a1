"""Command-line entry point wiring the whole pipeline.

Sub-commands: build-vocab, kg-embed, ds-align, train, eval, translate and
ablation. Every run resolves its configuration from defaults, then an
optional flat key=value config file, then command-line flags (flags win),
logs the resolved result to stderr, and draws all randomness from --seed,
so identical inputs produce byte-identical outputs. Progress and wall-clock
chatter go to stderr only; files and stdout stay deterministic.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterator

from . import corpus, embeddings, model, scoring, synthetic, vocab
from .corpus import DataError, Dataset, KnowledgeGraph
from .model import ModelConfig

logger = logging.getLogger("text2triple")

_FLAG_NAMES = {"A": "use_attention", "W": "use_word_init", "G": "use_kg_init"}


def _parse_flags(flag_spec: str) -> dict[str, bool]:
    """--flags A,W,G (or 'none') -> ModelConfig flag overrides."""
    values = {name: False for name in _FLAG_NAMES.values()}
    flag_spec = flag_spec.strip()
    if flag_spec and flag_spec.lower() != "none":
        for part in flag_spec.split(","):
            key = part.strip().upper()
            if key not in _FLAG_NAMES:
                raise ValueError(f"unknown ablation flag {part!r} (expected A, W, G)")
            values[_FLAG_NAMES[key]] = True
    return values


def parse_config_file(path) -> dict[str, tuple[int, str]]:
    """Flat key=value lines as key -> (line number, value); blank lines and
    # comments are ignored."""
    out: dict[str, tuple[int, str]] = {}
    for lineno, line in vocab.read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        out[key.strip()] = (lineno, value.strip())
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


def _load_kg(path) -> KnowledgeGraph:
    return KnowledgeGraph(corpus.load_kg_file(path))


def _write_into(out_dir, files: dict[str, str]) -> None:
    """Create out_dir, then write each named file in it through one write_files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.write_files({out / name: text for name, text in files.items()})


# ---------------------------------------------------------------------------
# Sub-command handlers
# ---------------------------------------------------------------------------


def _cmd_build_vocab(args) -> int:
    if str(args.corpus).endswith(".jsonl"):
        sentences = [list(ex.tokens) for ex in corpus.load_examples(args.corpus)]
    else:
        sentences = _read_sentences(args.corpus)
    wv = vocab.build_word_vocab(sentences, min_count=args.min_count)
    tv = vocab.build_kg_vocab(corpus.load_kg_file(args.kg))
    files = {
        "words.vocab": vocab.symbols_text(wv.tokens),
        "entities.vocab": vocab.symbols_text(tv.entities),
        "predicates.vocab": vocab.symbols_text(tv.predicates),
    }
    _write_into(args.out, files)
    print(f"words={len(wv)} entities={len(tv.entities)} predicates={len(tv.predicates)}")
    return 0


def _cmd_kg_embed(args) -> int:
    kg = _load_kg(args.kg)
    config = embeddings.TransEConfig(
        dim=args.dim, margin=args.margin, lr=args.lr, epochs=args.epochs,
        batch_size=args.batch_size, norm=args.norm, seed=args.seed,
    )
    vocab.check_symbols(sorted({symbol for tr in kg.triples for symbol in tr}))
    emb = embeddings.transe_train(kg, config)
    _write_into(args.out, embeddings.kg_embedding_files(emb, config))
    mean_rank, hits = embeddings.link_prediction_eval(emb, sorted(kg.triples), k=1)
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


def _run_training(args, config: ModelConfig, dataset: Dataset):
    kg_emb = embeddings.load_kg_embeddings(args.kg_embeddings) if args.kg_embeddings else None
    word_vocab = vocab.build_word_vocab(
        [list(ex.tokens) for ex in dataset.train], min_count=args.min_count
    )
    # The KG embeddings' vocabulary is the decoder's target vocabulary;
    # without them it is built from the gold triples seen.
    tvocab = kg_emb.vocab if kg_emb is not None else vocab.build_kg_vocab(
        ex.gold for ex in dataset.train + dataset.dev
    )
    rng = model.make_rng(config.seed + 1)  # init-table draws, separate from training
    word_init = None
    if config.use_word_init:
        if not args.word_vectors:
            raise DataError("flag W set but --word-vectors not given")
        word_init, coverage = embeddings.load_word_vectors(
            args.word_vectors, word_vocab, config.word_dim, rng
        )
        logger.info("word-vector coverage: %.1f%%", 100 * coverage)
    kg_init = None
    if config.use_kg_init:
        if kg_emb is None:
            raise DataError("flag G set but --kg-embeddings not given")
        kg_init, coverage = embeddings.decoder_init_table(
            kg_emb, tvocab, config.kg_dim, rng
        )
        logger.info("kg-embedding coverage: %.1f%%", 100 * coverage)
    result = model.train(dataset, word_vocab, tvocab, config,
                         word_init=word_init, kg_init=kg_init)
    return result, word_vocab, tvocab


def _format_epoch_line(stats: model.EpochStats) -> str:
    dev = "na" if stats.dev_f1 is None else f"{stats.dev_f1:.6f}"
    return f"epoch={stats.epoch}\ttrain_loss={stats.train_loss:.6f}\tdev_f1={dev}"


def _cmd_train(args) -> int:
    config = resolve_model_config(args)
    dataset = Dataset(
        train=corpus.load_examples(args.train),
        dev=corpus.load_examples(args.dev) if args.dev else [],
    )
    result, word_vocab, tvocab = _run_training(args, config, dataset)
    log_lines = [_format_epoch_line(s) for s in result.log]
    files = {args.out: model.checkpoint_bytes(result.params, config, word_vocab, tvocab)}
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


def _cmd_eval(args) -> int:
    params, config, word_vocab, tvocab = model.load_checkpoint(args.checkpoint)
    test = corpus.load_examples(args.test)
    kg = _load_kg(args.kg) if args.kg else None
    preds = [
        r.triple for r in model.translate_greedy_batch(
            [ex.tokens for ex in test], params, word_vocab, tvocab, config
        )
    ]
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
    dataset = Dataset(
        train=corpus.load_examples(args.train),
        dev=corpus.load_examples(args.dev) if args.dev else [],
        test=corpus.load_examples(args.test),
    )
    seeds = [int(s) for s in args.seeds.split(",")]
    grid = {}  # label -> flag set; a flag set sets all three flags, whatever --config says
    for flag_set in args.grid.split(";"):
        label = ModelConfig(**_parse_flags(flag_set)).flag_label()
        if label in grid:
            raise ValueError(f"ablation grid names flag set {label} twice")
        grid[label] = flag_set
    results: dict[str, dict[str, list[float]]] = {}
    dataset_label = Path(args.test).stem
    for label, flag_set in grid.items():
        scores: list[float] = []
        for seed in seeds:
            run_args = argparse.Namespace(
                config=args.config, flags=flag_set, seed=seed, epochs=args.epochs,
                word_vectors=args.word_vectors, kg_embeddings=args.kg_embeddings,
                min_count=args.min_count,
            )
            config = resolve_model_config(run_args)
            result, word_vocab, tvocab = _run_training(run_args, config, dataset)
            preds = [
                r.triple for r in model.translate_greedy_batch(
                    [ex.tokens for ex in dataset.test], result.params, word_vocab,
                    tvocab, config,
                )
            ]
            report = scoring.evaluate(preds, [ex.gold for ex in dataset.test])
            scores.append(report.f1)
            logger.info("ablation %s seed %d: f1=%.4f", label, seed, report.f1)
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
    _write_into(args.out, {
        "train.jsonl": corpus.examples_text(world.train),
        "dev.jsonl": corpus.examples_text(world.dev),
        "test.jsonl": corpus.examples_text(world.test),
        "kg.tsv": "".join("\t".join(tr) + "\n" for tr in sorted(world.kg.triples)),
        "surface.tsv": "".join(
            f"{ent}\t{' '.join(alias)}\n"
            for ent, aliases in sorted(world.kg.surface_forms.items()) for alias in aliases
        ),
        "words.vec": embeddings.vector_text(tokens, [world.word_vectors[t] for t in tokens]),
    })
    print(f"train={len(world.train)} dev={len(world.dev)} test={len(world.test)} "
          f"kg={len(world.kg.triples)}")
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch
# ---------------------------------------------------------------------------


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
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    p.add_argument("--norm", choices=("L1", "L2"), default="L2")
    p.add_argument("--seed", type=int, default=0)
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

    p = sub.add_parser("train", help="train the translator")
    p.add_argument("--config", default=None, help="flat key=value config file")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--word-vectors", default=None, dest="word_vectors")
    p.add_argument("--kg-embeddings", default=None, dest="kg_embeddings")
    p.add_argument("--flags", default=None, help="ablation flags, e.g. A,W,G or none")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
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

    p = sub.add_parser("ablation", help="train/evaluate a flag grid")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", default=None)
    p.add_argument("--test", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--grid", default="none;A;A,W;A,W,G",
                   help="semicolon-separated flag sets")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--word-vectors", default=None, dest="word_vectors")
    p.add_argument("--kg-embeddings", default=None, dest="kg_embeddings")
    p.add_argument("--min-count", type=int, default=1, dest="min_count")
    p.add_argument("--report", default=None)
    p.set_defaults(handler=_cmd_ablation)

    p = sub.add_parser("make-synthetic", help="emit a synthetic world's files")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hard", action="store_true")
    p.add_argument("--word-dim", type=int, default=16, dest="word_dim")
    p.set_defaults(handler=_cmd_make_synthetic)

    return parser


def cmd_dispatch(argv=None) -> int:
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
        return args.handler(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return cmd_dispatch(argv)
