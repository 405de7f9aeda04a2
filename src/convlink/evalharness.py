"""Evaluation harness: accuracy tables, feature ablations, prediction
scoring, and filter inspection."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import cnn, model as model_mod
from .config import FeatureToggles, ModelConfig
from .embeddings import EmbeddingTable
from .kb import KnowledgeBase
from .model import Model, TargetCache, infer, prepare_mention, train
from .sparse import TfIdfModel


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
             configs=None, tfidf: TfIdfModel = None) -> EvalReport:
    """Deterministic top-1 accuracy over all gold-annotated mentions.

    ``configs`` is a list of (name, FeatureToggles) pairs evaluated as
    feature subsets of the given model; by default the model's own
    toggles are used.  Mentions whose gold entity misses the candidate
    set score as wrong; gold ids absent from the KB are listed in the
    report rather than raised.
    """
    if tfidf is None:
        tfidf = TfIdfModel.from_kb(kb)
    if configs is None:
        configs = [("model", model.config.toggles)]
    report = EvalReport()
    pairs = list(_labeled_mentions(docs))
    for doc, mention in pairs:
        if mention.gold_entity not in kb.entities:
            report.missing_entities.append(mention.gold_entity)
    for name, toggles in configs:
        m = replace(model, config=model.config.with_toggles(toggles))
        results = _score_mentions(m, pairs, kb, table, tfidf)
        n = len(results)
        n_correct = sum(1 for r in results if r[0])
        n_in_cand = sum(1 for r in results if r[1])
        mean_q = (sum(r[2] for r in results) / n) if n else 0.0
        surfaces = [t.surface for doc, _ in pairs for t in doc.tokens]
        report.rows.append(EvalRow(
            config_name=name,
            accuracy=n_correct / n if n else 0.0,
            gold_recall=n_in_cand / n if n else 0.0,
            n_mentions=n,
            n_correct=n_correct,
            n_gold_in_candidates=n_in_cand,
            mean_queries_per_mention=mean_q,
            oov_rate=table.oov_rate(surfaces),
        ))
    return report


def _score_mentions(model: Model, pairs, kb: KnowledgeBase,
                    table: EmbeddingTable, tfidf: TfIdfModel) -> list:
    """(top-1 correct, gold in candidates, query count) per (doc, mention)
    pair, under the model's own toggles."""
    targets = TargetCache(kb, table, model.config,
                          embed=model.config.toggles.use_dense)
    results = []
    for doc, mention in pairs:
        prep = prepare_mention(model, kb, table, tfidf, doc, mention, targets)
        top = infer(model, prep)[0]
        results.append((top.entity == mention.gold_entity,
                        prep.gold_index is not None,
                        len(prep.queries)))
    return results


def correct_by_kind(model: Model, docs, kb: KnowledgeBase,
                    table: EmbeddingTable, doc_kinds: dict,
                    tfidf: TfIdfModel = None) -> dict:
    """Top-1 (n_correct, n_mentions) per document kind.

    ``doc_kinds`` maps doc_id -> kind label, e.g. the ``kind`` fields of
    a synthetic corpus's ``metadata["documents"]``; every evaluated
    document must have one.
    """
    if tfidf is None:
        tfidf = TfIdfModel.from_kb(kb)
    pairs = list(_labeled_mentions(docs))
    counts = {}
    for (doc, _), (correct, _, _) in zip(
            pairs, _score_mentions(model, pairs, kb, table, tfidf)):
        kind = doc_kinds[doc.doc_id]
        n_correct, n = counts.get(kind, (0, 0))
        counts[kind] = (n_correct + int(correct), n + 1)
    return counts


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
    the test split.  Returns (EvalReport, dict name -> trained Model)."""
    tfidf = TfIdfModel.from_kb(kb)
    report = EvalReport()
    trained = {}
    for name, toggles in configs:
        if log is not None:
            log("training configuration %r" % name)
        m = Model.initialize(base_config.with_toggles(toggles))
        m, _ = train(m, train_docs, kb, table, epochs=epochs, rho=rho,
                     eps=eps, seed=seed, tfidf=tfidf, log=log)
        sub = evaluate(m, test_docs, kb, table,
                       configs=[(name, toggles)], tfidf=tfidf)
        report.rows.extend(sub.rows)
        report.missing_entities.extend(sub.missing_entities)
        trained[name] = m
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
