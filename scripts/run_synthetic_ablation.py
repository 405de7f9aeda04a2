#!/usr/bin/env python3
"""Train and evaluate the feature-ablation grid on a synthetic corpus.

Generates the corpus, trains one system per configuration (full,
sparse-only, cnn-only, and the two single-cosine-pair systems), and
prints an accuracy table, each system's accuracy by document kind
(muddy, light-distractor, heavy-distractor; see ``convlink.synthetic``)
and the filter-topic purity diagnostic.
"""

import argparse
import logging
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from convlink.config import ModelConfig, toggles_from_name
from convlink.embeddings import load_word2vec
from convlink.evalharness import evaluate, most_topical_filter, run_ablation
from convlink.kb import KnowledgeBase
from convlink.model import TargetCache
from convlink.synthetic import SyntheticSpec, generate
from convlink.textproc import load_corpus, read_jsonl

log = logging.getLogger("convlink")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="/tmp/convlink-synthetic")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=15)
    ap.add_argument("--k", type=int, default=48)
    ap.add_argument("--train-docs", type=int, default=2000)
    ap.add_argument("--test-docs", type=int, default=400)
    ap.add_argument("--skip-pairs", action="store_true",
                    help="only run full / sparse-only / cnn-only")
    args = ap.parse_args()
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    spec = SyntheticSpec(seed=args.seed, n_train_docs=args.train_docs,
                         n_test_docs=args.test_docs)
    t0 = time.time()
    data = generate(spec, args.out)
    log.info("generated corpus in %.1fs", time.time() - t0)

    def records(path):
        return (rec for _, rec in read_jsonl(path))

    kb = KnowledgeBase.ingest(records(data.paths["articles.jsonl"]),
                              records(data.paths["anchors.jsonl"]))
    table = load_word2vec(data.paths["embeddings.txt"])
    train_docs = load_corpus(data.paths["train.jsonl"])
    test_docs = load_corpus(data.paths["test.jsonl"])

    config = ModelConfig(d=table.dim, k=args.k, init_seed=args.seed)
    names = ["full", "sparse-only", "cnn-only"]
    if not args.skip_pairs:
        names += ["pair:src_document*tgt_document",
                  "pair:src_mention*tgt_title"]
    configs = [(name, toggles_from_name(name)) for name in names]

    t0 = time.time()
    report, trained = run_ablation(config, train_docs, test_docs, kb, table,
                                   configs, epochs=args.epochs,
                                   seed=args.seed)
    log.info("ablation trained in %.1fs", time.time() - t0)

    print("%-36s %8s %8s" % ("configuration", "accuracy", "recall"))
    for row in report.rows:
        print("%-36s %8.4f %8.4f" % (row.config_name, row.accuracy,
                                     row.gold_recall))

    kinds = ("muddy", "light-distractor", "heavy-distractor")
    doc_kinds = {doc_id: rec["kind"]
                 for doc_id, rec in data.metadata["documents"].items()}
    print()
    print("%-36s" % "correct by document kind"
          + "".join(" %18s" % kind for kind in kinds))
    targets = TargetCache(kb, table, config)
    by_kind = [evaluate(list(trained.items()),
                        [d for d in test_docs if doc_kinds[d.doc_id] == kind],
                        targets).rows for kind in kinds]
    for i, row in enumerate(report.rows):
        print("%-36s" % row.config_name + "".join(
            " %18s" % ("%d/%d" % (rows[i].n_correct, rows[i].n_mentions))
            for rows in by_kind))

    t0 = time.time()
    row, topic, purity, ngrams = most_topical_filter(
        trained["full"], test_docs, table, data.metadata["topic_vocab"])
    log.info("filter scan in %.1fs", time.time() - t0)
    print("most topical src_document filter: row=%s topic=%s purity=%.2f"
          % (row, topic, purity))
    for ng in ngrams:
        print("  %s" % ng)


if __name__ == "__main__":
    main()
