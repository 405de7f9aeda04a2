"""Evaluation harness: accuracy tables, feature ablations, prediction
scoring, and filter inspection."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import cnn
from .config import ModelConfig
from .embeddings import EmbeddingTable
from .errors import FormatError
from .kb import KnowledgeBase
from .model import (Model, TargetCache, fit, infer, prepare_corpus,
                    prepare_mention)
from .sparse import TfIdfModel
from .textproc import read_jsonl, string_field


@dataclass
class EvalRow:
    config_name: str
    accuracy: float
    gold_recall: float
    n_mentions: int
    n_correct: int
    n_gold_in_candidates: int
    mean_queries_per_mention: float
    oov_rate: float

    def __post_init__(self):
        if self.n_mentions and not (self.accuracy <= self.gold_recall + 1e-12):
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


def _labeled_mentions(docs):
    for doc in docs:
        for mention in doc.mentions:
            if mention.gold_entity is not None:
                yield doc, mention


def evaluate(model: Model, docs, kb: KnowledgeBase, table: EmbeddingTable,
             configs=None) -> EvalReport:
    """Deterministic top-1 accuracy over all gold-annotated mentions.

    ``configs`` is a list of (name, FeatureToggles) pairs, evaluated as
    feature subsets of the given model, or (name, Model) pairs, scored as
    they are; by default the model's own toggles are used.  Each mention
    is prepared once, with ``model``, for all configs, so a listed Model
    must have ``model``'s config apart from its toggles.  Mentions whose
    gold entity misses the candidate set score as wrong; gold ids absent
    from the KB are listed in the report rather than raised.
    """
    if configs is None:
        configs = [("model", model.config.toggles)]
    scorers = [c if isinstance(c, Model)
               else replace(model, config=model.config.with_toggles(c))
               for _, c in configs]
    report = EvalReport()
    pairs = list(_labeled_mentions(docs))
    for doc, mention in pairs:
        if mention.gold_entity not in kb.entities:
            report.missing_entities.append(mention.gold_entity)
    oov_rate = table.oov_rate([t.surface for doc, _ in pairs
                               for t in doc.tokens])
    n = len(pairs)
    for (name, _), results in zip(
            configs, _score_mentions(model, scorers, pairs, kb, table)):
        n_correct = sum(1 for r in results if r[0])
        n_in_cand = sum(1 for r in results if r[1])
        mean_q = (sum(r[2] for r in results) / n) if n else 0.0
        report.rows.append(EvalRow(
            config_name=name,
            accuracy=n_correct / n if n else 0.0,
            gold_recall=n_in_cand / n if n else 0.0,
            n_mentions=n,
            n_correct=n_correct,
            n_gold_in_candidates=n_in_cand,
            mean_queries_per_mention=mean_q,
            oov_rate=oov_rate,
        ))
    return report


def _score_mentions(model: Model, scorers, pairs, kb: KnowledgeBase,
                    table: EmbeddingTable) -> list:
    """Per scorer, (top-1 correct, gold in candidates, query count) per
    (doc, mention) pair.  Each mention is prepared once, with ``model``,
    scored by every scorer and dropped.  Each scorer keeps its own memo
    of target topic vectors, since scorers differ in weights and mask."""
    for m in scorers:
        if m.config.with_toggles(model.config.toggles) != model.config:
            raise ValueError("a scored model's config differs from the "
                             "preparing model's beyond its toggles")
    tfidf = TfIdfModel.from_kb(kb)
    targets = TargetCache(kb, table, model.config, tfidf)
    results = [[] for _ in scorers]
    memos = [{} for _ in scorers]
    for doc, mention in pairs:
        prep = prepare_mention(model, kb, table, tfidf, doc, mention, targets)
        for m, memo, out in zip(scorers, memos, results):
            top = infer(m, prep, memo)[0]
            out.append((top.entity == mention.gold_entity,
                        prep.gold_index is not None, len(prep.queries)))
    return results


def correct_by_kind(model: Model, docs, kb: KnowledgeBase,
                    table: EmbeddingTable, doc_kinds: dict) -> dict:
    """Top-1 (n_correct, n_mentions) per document kind.

    ``doc_kinds`` maps doc_id -> kind label, e.g. the ``kind`` fields of
    a synthetic corpus's ``metadata["documents"]``; every evaluated
    document must have one.
    """
    pairs = list(_labeled_mentions(docs))
    counts = {}
    [results] = _score_mentions(model, [model], pairs, kb, table)
    for (doc, _), (correct, _, _) in zip(pairs, results):
        kind = doc_kinds[doc.doc_id]
        n_correct, n = counts.get(kind, (0, 0))
        counts[kind] = (n_correct + int(correct), n + 1)
    return counts


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
    corpus gold labels, keyed by (doc_id, span start, span end)."""
    by_span = {}
    for rec in prediction_records:
        span = rec["span"]
        by_span[(rec["doc_id"], int(span[0]), int(span[1]))] = rec["entity"]
    n = 0
    n_correct = 0
    for doc, mention in _labeled_mentions(docs):
        n += 1
        pred = by_span.get((doc.doc_id, mention.start, mention.end))
        if pred == mention.gold_entity:
            n_correct += 1
    acc = n_correct / n if n else 0.0
    return EvalRow(config_name="predictions", accuracy=acc, gold_recall=1.0,
                   n_mentions=n, n_correct=n_correct, n_gold_in_candidates=n,
                   mean_queries_per_mention=0.0, oov_rate=0.0)


def run_ablation(base_config: ModelConfig, train_docs, test_docs,
                 kb: KnowledgeBase, table: EmbeddingTable, configs,
                 epochs: int, rho: float = 0.95, eps: float = 1e-6,
                 seed: int = 0, log=None):
    """Train one system per feature configuration and evaluate each on
    the test split.  Both splits are prepared once for all
    configurations.  Returns (EvalReport, dict name -> trained Model)."""
    preparer = Model.initialize(base_config)
    prepared = prepare_corpus(preparer, kb, table, train_docs)
    trained = {}
    for name, toggles in configs:
        if log is not None:
            log("training configuration %r" % name)
        m = Model.initialize(base_config.with_toggles(toggles))
        fit(m, prepared, epochs, rho=rho, eps=eps, seed=seed, log=log)
        trained[name] = m
    report = evaluate(preparer, test_docs, kb, table,
                      configs=list(trained.items()))
    return report, trained


# ---------------------------------------------------------------------------
# Filter inspection
# ---------------------------------------------------------------------------

def inspect_filters(model: Model, docs, table: EmbeddingTable,
                    granularity: str, filter_row: int, top_n: int) -> list:
    """Top-activating n-grams for one filter row, scanned pre-pooling.

    Every width-ell window in the corpus is scored with
    max(0, M[row] . window); zero activations are dropped and surviving
    n-grams are deduplicated by lowercased surface (keeping the max).
    Documents shorter than the filter width are skipped.
    """
    bank = model.cnn_params.banks[granularity]
    row = bank.M[filter_row]      # IndexError for out-of-range rows
    ell = bank.ell
    best = {}
    for doc in docs:
        surfaces = [t.surface for t in doc.tokens]
        if len(surfaces) < ell:
            continue
        X = table.lookup_sequence(surfaces)
        W = cnn.window_matrix(X, ell)
        acts = W @ row
        for j in np.nonzero(acts > 0.0)[0]:
            ngram = " ".join(surfaces[j:j + ell])
            key = ngram.lower()
            act = float(acts[j])
            if act > best.get(key, (-1.0, ""))[0]:
                best[key] = (act, ngram)
    ranked = sorted(((act, ngram) for act, ngram in best.values()),
                    key=lambda kv: (-kv[0], kv[1].lower()))
    return [(ngram, act) for act, ngram in ranked[:top_n]]


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
    the row whose top activations are purest."""
    best = (None, None, -1.0, [])
    for row in range(model.cnn_params.k):
        ngrams = [ng for ng, _ in inspect_filters(model, docs, table,
                                                  granularity, row, top_n)]
        if not ngrams:
            continue
        topic, purity = topic_purity(ngrams, topic_vocab)
        if purity > best[2]:
            best = (row, topic, purity, ngrams)
    return best
