"""Command-line entry point.

Subcommands: ingest-kb, gen-synthetic, train, evaluate, link,
inspect-filters.  Diagnostics go to stderr; data goes to files or
stdout.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace

from . import evalharness, kb as kb_mod, model as model_mod, synthetic
from .config import GRANULARITIES, ModelConfig, toggles_from_name
from .embeddings import load_word2vec
from .errors import ConvlinkError, DimensionError, IngestError, UsageError
from .textproc import load_corpus, read_jsonl, string_field

log = logging.getLogger("convlink")


# gen-synthetic flag -> the SyntheticSpec field it sets and defaults from
_GEN_FLAGS = {
    "--seed": "seed", "--n-topics": "n_topics",
    "--vocab-per-topic": "vocab_per_topic", "--n-entities": "n_entities",
    "--ambiguity": "mention_ambiguity", "--train-docs": "n_train_docs",
    "--test-docs": "n_test_docs", "--misleading-fraction": "misleading_fraction",
    "--muddy-fraction": "muddy_fraction", "--anchor-skew": "anchor_skew",
    "--embedding-dim": "embedding_dim",
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # runs on the parser that failed, so a subcommand shows its usage
        raise UsageError("%s\n%s" % (message, self.format_usage().rstrip()))


def _build_parser() -> _Parser:
    p = _Parser(prog="convlink",
                description="Entity linker with convolutional semantic "
                            "similarity features and a latent-query sparse "
                            "model.")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress progress output on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    ing = sub.add_parser("ingest-kb", help="build a knowledge-base index")
    ing.add_argument("--articles", required=True)
    ing.add_argument("--anchors", required=True)
    ing.add_argument("--out", required=True)

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic corpus")
    gen.add_argument("--out", required=True)
    spec = synthetic.SyntheticSpec()
    for flag, name in _GEN_FLAGS.items():
        default = getattr(spec, name)
        gen.add_argument(flag, dest=name, type=type(default), default=default)

    def add_common(sp, needs_model):
        sp.add_argument("--kb", required=True)
        sp.add_argument("--embeddings", required=True)
        sp.add_argument("--corpus", required=True)
        if needs_model:
            sp.add_argument("--model", required=True)

    tr = sub.add_parser("train", help="train a model")
    add_common(tr, needs_model=False)
    tr.add_argument("--out", required=True)
    tr.add_argument("--epochs", type=int, default=15)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--config", default="full",
                    help="full | sparse-only | cnn-only | pair:<src>*<tgt>")
    tr.add_argument("--k", type=int, default=150)

    ev = sub.add_parser("evaluate", help="evaluate a model or predictions")
    add_common(ev, needs_model=False)
    source = ev.add_mutually_exclusive_group(required=True)
    source.add_argument("--model")
    source.add_argument("--predictions",
                        help="score a link output file instead of running "
                             "the model")
    ev.add_argument("--config", action="append", default=None,
                    help="feature configuration to evaluate (repeatable)")
    ev.add_argument("--report", help="write the report to this path")

    ln = sub.add_parser("link", help="link mentions in a corpus")
    add_common(ln, needs_model=True)
    ln.add_argument("--out", required=True)

    ins = sub.add_parser("inspect-filters",
                         help="show top-activating n-grams for a filter")
    ins.add_argument("--model", required=True)
    ins.add_argument("--embeddings", required=True)
    ins.add_argument("--corpus", required=True)
    ins.add_argument("--granularity", default="src_document",
                     choices=list(GRANULARITIES))
    ins.add_argument("--filter-row", type=int, required=True)
    ins.add_argument("--top-n", type=int, default=10)
    p.subcommands = sub.choices
    return p


def _load_inputs(args):
    return (kb_mod.load_kb(args.kb), load_word2vec(args.embeddings),
            load_corpus(args.corpus))


def _load_model(args, table):
    """The model file, checked against the embedding table it runs on."""
    m = model_mod.load_model(args.model)
    if m.config.d != table.dim:
        raise DimensionError(
            "embeddings %s are %d-wide but model %s expects %d-wide embeddings"
            % (args.embeddings, table.dim, args.model, m.config.d))
    return m


def _cmd_ingest(args) -> int:
    where = args.articles       # location of the article being ingested

    def articles():
        nonlocal where
        for where, rec in read_jsonl(args.articles):
            for key in ("id", "title", "body"):
                string_field(rec, key, where)
            yield rec

    def anchors():
        for where, rec in read_jsonl(args.anchors):
            for key in ("anchor_text", "entity_id"):
                string_field(rec, key, where)
            yield rec

    try:
        knowledge = kb_mod.KnowledgeBase.ingest(articles(), anchors())
    except IngestError as exc:      # raised while reading the articles
        raise IngestError("%s: %s" % (where, exc)) from None
    if knowledge.skipped_anchors:
        log.warning("skipped %d anchors naming unknown entities",
                    knowledge.skipped_anchors)
    kb_mod.save_kb(knowledge, args.out)
    log.info("ingested %d entities, %d anchor strings -> %s",
             len(knowledge.entities), len(knowledge.anchor_index), args.out)
    return 0


def _cmd_gen(args) -> int:
    spec = synthetic.SyntheticSpec(
        **{name: getattr(args, name) for name in _GEN_FLAGS.values()})
    data = synthetic.generate(spec, args.out)
    log.info("wrote synthetic corpus to %s", data.out_dir)
    return 0


def _cmd_train(args) -> int:
    model_mod.check_epochs(args.epochs)
    toggles = toggles_from_name(args.config)
    knowledge, table, docs = _load_inputs(args)
    config = ModelConfig(d=table.dim, k=args.k, init_seed=args.seed,
                         toggles=toggles)
    m = model_mod.Model.initialize(config)
    model_mod.train(m, docs, knowledge, table, epochs=args.epochs,
                    seed=args.seed)
    model_mod.save_model(m, args.out)
    log.info("wrote model to %s", args.out)
    return 0


def _cmd_evaluate(args) -> int:
    if args.predictions and args.config:
        raise UsageError("--config cannot be combined with --predictions")
    configs = [(name, toggles_from_name(name)) for name in args.config or ()]
    knowledge, table, docs = _load_inputs(args)
    if args.predictions:
        records = evalharness.load_predictions(args.predictions)
        row = evalharness.score_predictions(docs, records)
        report = evalharness.EvalReport(rows=[row])
    else:
        m = _load_model(args, table)
        targets = model_mod.TargetCache(knowledge, table, m.config)
        models = [(name, replace(m, config=m.config.with_toggles(toggles)))
                  for name, toggles in configs] or [("model", m)]
        report = evalharness.evaluate(models, docs, targets)
    text = report.to_jsonl()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for row in report.rows:
        log.info("%s: accuracy=%.4f gold_recall=%s n=%d",
                 row.config_name, row.accuracy,
                 "n/a" if row.gold_recall is None else
                 "%.4f" % row.gold_recall, row.n_mentions)
    return 0


def _cmd_link(args) -> int:
    knowledge, table, docs = _load_inputs(args)
    m = _load_model(args, table)
    targets = model_mod.TargetCache(knowledge, table, m.config)
    pairs = ((doc, mention) for doc in docs for mention in doc.mentions)
    with open(args.out, "w", encoding="utf-8") as fh:
        for prep, [top] in model_mod.link(targets, [m], pairs):
            fh.write(json.dumps({
                "doc_id": prep.mention.doc_id,
                "span": [prep.mention.start, prep.mention.end],
                "entity": top.entity,
                "prob": top.marginal_prob,
            }, sort_keys=True) + "\n")
    log.info("wrote predictions to %s", args.out)
    return 0


def _cmd_inspect(args) -> int:
    table = load_word2vec(args.embeddings)
    docs = load_corpus(args.corpus)
    m = _load_model(args, table)
    results = evalharness.inspect_filters(m, docs, table, args.granularity,
                                          args.filter_row, args.top_n)
    for ngram, act in results:
        sys.stdout.write("%.6f\t%s\n" % (act, ngram))
    return 0


_COMMANDS = {
    "ingest-kb": _cmd_ingest,
    "gen-synthetic": _cmd_gen,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "link": _cmd_link,
    "inspect-filters": _cmd_inspect,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:       # argparse hands a subcommand's leftovers back
            parser.subcommands[args.command].error(
                "unrecognized arguments: %s" % " ".join(extra))
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.WARNING if args.quiet else logging.INFO)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ConvlinkError, OSError, json.JSONDecodeError, IndexError,
            KeyError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
