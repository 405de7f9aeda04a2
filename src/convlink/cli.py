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
from .errors import ConvlinkError, FormatError, IngestError, UsageError
from .textproc import load_corpus, read_jsonl, string_field

log = logging.getLogger("convlink")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


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
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-topics", type=int, default=4)
    gen.add_argument("--vocab-per-topic", type=int, default=60)
    gen.add_argument("--n-entities", type=int, default=40)
    gen.add_argument("--ambiguity", type=int, default=2)
    gen.add_argument("--train-docs", type=int, default=2000)
    gen.add_argument("--test-docs", type=int, default=400)
    gen.add_argument("--misleading-fraction", type=float, default=0.5)
    gen.add_argument("--muddy-fraction", type=float, default=0.25)
    gen.add_argument("--anchor-skew", type=float, default=4.0)
    gen.add_argument("--embedding-dim", type=int, default=16)

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
    ev.add_argument("--model")
    ev.add_argument("--predictions",
                    help="score a link output file instead of running the model")
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
    return p


def _load_inputs(args, with_model):
    knowledge = kb_mod.load_kb(args.kb)
    table = load_word2vec(args.embeddings)
    docs = load_corpus(args.corpus)
    m = model_mod.load_model(args.model) if with_model else None
    return knowledge, table, docs, m


def _cmd_ingest(args) -> int:
    where = args.articles       # location of the article being ingested

    def articles():
        nonlocal where
        for where, rec in read_jsonl(args.articles):
            for key in ("id", "title", "body"):
                string_field(rec, key, where)
            if not rec["title"].strip():
                raise FormatError("%s: title must be non-empty" % where)
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
        n_topics=args.n_topics, vocab_per_topic=args.vocab_per_topic,
        n_entities=args.n_entities, mention_ambiguity=args.ambiguity,
        n_train_docs=args.train_docs, n_test_docs=args.test_docs,
        misleading_fraction=args.misleading_fraction,
        muddy_fraction=args.muddy_fraction, anchor_skew=args.anchor_skew,
        seed=args.seed, embedding_dim=args.embedding_dim)
    data = synthetic.generate(spec, args.out)
    log.info("wrote synthetic corpus to %s", data.out_dir)
    return 0


def _cmd_train(args) -> int:
    knowledge, table, docs, _ = _load_inputs(args, with_model=False)
    toggles = toggles_from_name(args.config)
    config = ModelConfig(d=table.dim, k=args.k, init_seed=args.seed,
                         toggles=toggles)
    m = model_mod.Model.initialize(config)
    m, report = model_mod.train(m, docs, knowledge, table,
                                epochs=args.epochs, seed=args.seed,
                                log=log.info)
    model_mod.save_model(m, args.out)
    log.info("trained on %d mentions (%.2f queries/mention, oov %.3f) -> %s",
             report.n_mentions, report.mean_queries_per_mention,
             report.oov_rate, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    knowledge, table, docs, _ = _load_inputs(args, with_model=False)
    if args.predictions:
        records = evalharness.load_predictions(args.predictions)
        row = evalharness.score_predictions(docs, records)
        report = evalharness.EvalReport(rows=[row])
    else:
        if not args.model:
            raise UsageError("evaluate needs --model or --predictions")
        m = model_mod.load_model(args.model)
        models = [("model", m)]
        if args.config:
            models = [(name, replace(m, config=m.config.with_toggles(
                toggles_from_name(name)))) for name in args.config]
        report = evalharness.evaluate(models, docs, knowledge, table)
    text = report.to_jsonl()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for row in report.rows:
        log.info("%s: accuracy=%.4f gold_recall=%.4f n=%d",
                 row.config_name, row.accuracy, row.gold_recall, row.n_mentions)
    return 0


def _cmd_link(args) -> int:
    knowledge, table, docs, m = _load_inputs(args, with_model=True)
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
    m = model_mod.load_model(args.model)
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
        args = parser.parse_args(argv)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        parser.print_usage(sys.stderr)
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
