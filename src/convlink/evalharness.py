"""Evaluation harness: accuracy tables, feature ablations, prediction
scoring, and filter inspection."""

from __future__ import annotations

import heapq
import json
import logging
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import cnn
from .config import ModelConfig
from .embeddings import EmbeddingTable
from .errors import FormatError
from .kb import KnowledgeBase
from .model import (Model, TargetCache, check_epochs, fit, labeled_mentions,
                    link, prepare_corpus)
from .textproc import read_jsonl, string_field

log = logging.getLogger("convlink")


@dataclass
class EvalRow:
    """One report row; the four fields that only a model run measures
    are None in a row scored from a predictions file."""
    config_name: str
    accuracy: float
    gold_recall: Optional[float]
    n_mentions: int
    n_correct: int
    n_gold_in_candidates: Optional[int]
    mean_queries_per_mention: Optional[float]
    oov_rate: Optional[float]

    def __post_init__(self):
        if (self.n_mentions and self.gold_recall is not None
                and not self.accuracy <= self.gold_recall + 1e-12):
            raise ValueError("accuracy cannot exceed gold recall")


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)
    missing_entities: list = field(default_factory=list)   # gold ids absent from KB

    def to_jsonl(self) -> str:
        lines = [json.dumps(asdict(r), sort_keys=True) for r in self.rows]
        if self.missing_entities:
            lines.append(json.dumps(
                {"missing_entities": sorted(set(self.missing_entities))},
                sort_keys=True))
        return "\n".join(lines) + "\n"


def evaluate(models, docs, targets: TargetCache) -> EvalReport:
    """Deterministic top-1 accuracy of each (name, Model) pair in
    ``models`` over all gold-annotated mentions, one row per pair.

    Each mention is prepared once, in ``targets``, and scored by every
    model through ``model.link``, so the models' configs may differ from
    ``targets.config`` only in their toggles.  Mentions whose gold entity
    misses the candidate set score as wrong; gold ids absent from the KB
    are listed in the report rather than raised.
    """
    report = EvalReport()
    pairs = list(labeled_mentions(docs))
    for doc, mention in pairs:
        if mention.gold_entity not in targets.kb.entities:
            report.missing_entities.append(mention.gold_entity)
    oov_rate = targets.table.oov_rate(
        [t.surface for doc in docs for t in doc.tokens])
    n = len(pairs)
    n_correct = [0] * len(models)
    n_in_cand = n_queries = 0
    for prep, tops in link(targets, [m for _, m in models], pairs):
        n_in_cand += prep.gold_index is not None
        n_queries += len(prep.queries)
        for i, top in enumerate(tops):
            n_correct[i] += top.entity == prep.mention.gold_entity
    for (name, _), correct in zip(models, n_correct):
        report.rows.append(EvalRow(
            config_name=name,
            accuracy=correct / n if n else 0.0,
            gold_recall=n_in_cand / n if n else 0.0,
            n_mentions=n,
            n_correct=correct,
            n_gold_in_candidates=n_in_cand,
            mean_queries_per_mention=n_queries / n if n else 0.0,
            oov_rate=oov_rate,
        ))
    return report


def load_predictions(path) -> list:
    """Read a ``link`` output file: one JSON object per line with a
    ``doc_id``, an ``entity`` and a ``span`` of two integers."""
    records = []
    for where, rec in read_jsonl(path):
        string_field(rec, "doc_id", where)
        string_field(rec, "entity", where)
        span = rec.get("span")
        if (not isinstance(span, list) or len(span) != 2
                or any(type(x) is not int for x in span)):
            raise FormatError("%s: span must be two integers, got %s"
                              % (where, json.dumps(span)))
        records.append(rec)
    return records


def score_predictions(docs, prediction_records) -> EvalRow:
    """Score prediction records {doc_id, span, entity, prob} against
    corpus gold labels, keyed by (doc_id, span start, span end).  The
    records hold no candidate sets, queries or embeddings, so gold
    recall, the gold-in-candidates count, queries per mention and the
    OOV rate are None."""
    by_span = {}
    for rec in prediction_records:
        span = rec["span"]
        by_span[(rec["doc_id"], int(span[0]), int(span[1]))] = rec["entity"]
    n = 0
    n_correct = 0
    for doc, mention in labeled_mentions(docs):
        n += 1
        pred = by_span.get((doc.doc_id, mention.start, mention.end))
        if pred == mention.gold_entity:
            n_correct += 1
    acc = n_correct / n if n else 0.0
    return EvalRow(config_name="predictions", accuracy=acc, gold_recall=None,
                   n_mentions=n, n_correct=n_correct, n_gold_in_candidates=None,
                   mean_queries_per_mention=None, oov_rate=None)


def run_ablation(base_config: ModelConfig, train_docs, test_docs,
                 kb: KnowledgeBase, table: EmbeddingTable, configs,
                 epochs: int, seed: int = 0):
    """Train one system per feature configuration and evaluate each on
    the test split.  Both splits are prepared in one TargetCache, once
    for all configurations.  Returns (EvalReport, name -> Model)."""
    check_epochs(epochs)
    targets = TargetCache(kb, table, base_config)
    prepared = prepare_corpus(targets, train_docs)
    trained = {}
    for name, toggles in configs:
        log.info("training configuration %r", name)
        m = Model.initialize(base_config.with_toggles(toggles))
        fit(m, prepared, epochs, seed=seed)
        trained[name] = m
    report = evaluate(list(trained.items()), test_docs, targets)
    return report, trained


# ---------------------------------------------------------------------------
# Filter inspection
# ---------------------------------------------------------------------------

def _windowed(docs, table: EmbeddingTable, M: np.ndarray, ell: int):
    """(n-gram per window, windows x k pre-activations under bank ``M``)
    of each document at least ``ell`` tokens long."""
    for doc in docs:
        surfaces = [t.surface for t in doc.tokens]
        if len(surfaces) >= ell:
            ngrams = [" ".join(surfaces[j:j + ell])
                      for j in range(len(surfaces) - ell + 1)]
            yield ngrams, cnn._encode(M, cnn.embed(table, surfaces, ell)).pre


def _top_ngrams(filter_row: int, windowed, top_n: int) -> list:
    best = {}       # lowercased n-gram -> (activation, n-gram)
    for ngrams, A in windowed:
        acts = A[:, filter_row]
        for j in np.nonzero(acts > 0.0)[0]:
            ngram = ngrams[j]
            key = ngram.lower()
            act = float(acts[j])
            if act > best.get(key, (-1.0, ""))[0]:
                best[key] = (act, ngram)
    top = heapq.nsmallest(top_n, best.items(),
                          key=lambda kv: (-kv[1][0], kv[0]))
    return [(ngram, act) for _, (act, ngram) in top]


def inspect_filters(model: Model, docs, table: EmbeddingTable,
                    granularity: str, filter_row: int, top_n: int) -> list:
    """Top-activating n-grams for one filter row, scanned pre-pooling.

    Every width-ell window in the corpus is scored with
    max(0, M[row] . window); zero activations are dropped and surviving
    n-grams are deduplicated by lowercased surface (keeping the max).
    Documents shorter than the filter width are skipped.  A row outside
    [0, k) is an IndexError and a negative ``top_n`` a ValueError.
    """
    if top_n < 0:
        raise ValueError("top-n must be at least 0, got %d" % top_n)
    cfg = model.config
    if not 0 <= filter_row < cfg.k:
        raise IndexError("filter row %d is outside [0, %d)"
                         % (filter_row, cfg.k))
    return _top_ngrams(filter_row, _windowed(
        docs, table, model.banks[granularity], cfg.ell), top_n)


def topic_purity(ngrams, topic_vocab: dict):
    """Fraction of the n-grams' tokens drawn from the best single topic.

    ``topic_vocab`` maps topic name -> iterable of member tokens.
    Returns (best_topic, purity); purity is 0 for an empty n-gram list.
    """
    tokens = [w.lower() for ngram in ngrams for w in ngram.split()]
    if not tokens:
        return None, 0.0
    sets = {name: {w.lower() for w in vocab}
            for name, vocab in topic_vocab.items()}
    best_name, best_count = None, -1
    for name, vocab in sorted(sets.items()):
        count = sum(1 for t in tokens if t in vocab)
        if count > best_count:
            best_name, best_count = name, count
    return best_name, best_count / len(tokens)


def most_topical_filter(model: Model, docs, table: EmbeddingTable,
                        topic_vocab: dict, granularity: str = "src_document",
                        top_n: int = 10):
    """Scan every filter row and return (row, topic, purity, ngrams) for
    the row whose top activations are purest.  Each document is encoded
    once for all rows."""
    windowed = list(_windowed(docs, table, model.banks[granularity],
                              model.config.ell))
    best = (None, None, -1.0, [])
    for row in range(model.config.k):
        ngrams = [ng for ng, _ in _top_ngrams(row, windowed, top_n)]
        if not ngrams:
            continue
        topic, purity = topic_purity(ngrams, topic_vocab)
        if purity > best[2]:
            best = (row, topic, purity, ngrams)
    return best
