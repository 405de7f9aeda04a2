"""Latent-query log-linear model over (candidate, query) pairs.

The joint score of candidate t and query q for a mention x is

    s(t, q) = w_sparse . (f_Q(x, q) + f_E(x, q, t)) + w_dense . f_C(x, t)

and P(t, q | x) is the softmax over all pairs.  Predictions marginalize
the latent query: P(t | x) = sum_q P(t, q | x).  Training maximizes the
marginal log-likelihood of gold entities with per-example Adadelta
updates; the dense-feature gradient backpropagates through all five
convolutional filter banks.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import cnn, sparse
from .binfile import read_framed, write_framed
from .config import (GRANULARITIES, HASH_CAPACITY, ModelConfig, N_DENSE,
                     needed_granularities)
from .embeddings import EmbeddingTable
from .errors import LoadError, TrainingError
from .kb import (NULL_ENTITY, CandidateSet, KnowledgeBase, candidates_for,
                 generate_queries)
from .sparse import FeatureTable, FeatureVocabulary, TfIdfModel
from .textproc import Document, Mention, extract_target_views, extract_views

MODEL_MAGIC = b"CLMD1"
MODEL_VERSION = 3
SPARSE_ENTRY = np.dtype([("idx", "<u8"), ("w", "<f8")])

# The largest weight magnitude a model file may hold.  Trained models
# peak at |w| = 0.07 (paper-like) and 1.39 (the ablation-grid full model):
# Adadelta's steps start near sqrt(EPS) = 1e-3 and grow only with the RMS
# of earlier steps.  Below this bound a topic vector over DOC_CAP windows
# of 300-wide rows with components below 1e10 stays far from float64
# overflow, so a larger weight can only be damage, such as a flipped
# exponent bit.
WEIGHT_LIMIT = 1e6


def bank_views(vector: np.ndarray, k: int) -> dict:
    """Granularity -> (k, d*ell) view into consecutive blocks of
    ``vector``, in GRANULARITIES order: writing a bank writes the
    vector."""
    return dict(zip(GRANULARITIES, vector.reshape(len(GRANULARITIES), k, -1)))


@dataclass
class Model:
    """``theta`` holds every dense parameter: the six cosine weights,
    then the five banks as laid out by ``bank_views``.  ``w_dense`` and
    the ``banks`` are views into it; neither can be rebound."""
    config: ModelConfig
    w_sparse: dict                  # feature index -> weight
    theta: np.ndarray

    def __post_init__(self):
        self._banks = bank_views(self.theta[N_DENSE:], self.config.k)

    @property
    def w_dense(self) -> np.ndarray:
        return self.theta[:N_DENSE]

    @property
    def banks(self) -> dict:
        return self._banks

    @classmethod
    def initialize(cls, config: ModelConfig) -> "Model":
        """Zero cosine weights, and banks drawn at once from
        Uniform(-a, a) with a = sqrt(6 / (d*ell + k)), which keeps
        initial window responses moderate."""
        rng = np.random.default_rng(config.init_seed)
        width = config.d * config.ell
        a = np.sqrt(6.0 / (width + config.k))
        banks = rng.uniform(-a, a, size=len(GRANULARITIES) * config.k * width)
        return cls(config, {}, np.concatenate([np.zeros(N_DENSE), banks]))


class TargetCache:
    """Weight-free context that mentions are prepared in: the KB, the
    embedding table, the config, the KB's tf-idf model and the hashed
    feature vocabulary, plus three memos that live as long as it does
    and are shared across mentions.  Per whitespace chunk of the KB's
    titles and bodies: its tokens, so the tf-idf model and ``get`` split
    each distinct chunk once.  Per entity (``get``): its body tf-idf bag and
    target ``cnn.View``s, exactly one per granularity, which frozen-weight
    memos key on.  Per mention surface, the tuple of its
    (surface, pos, ner) tokens (``surface``): its queries, candidates
    and every feature row except the tf-idf bucket, the only feature
    that reads the source document."""

    def __init__(self, kb: KnowledgeBase, table: EmbeddingTable,
                 config: ModelConfig):
        self.kb = kb
        self.table = table
        self.config = config
        self._chunks = {}       # KB text chunk -> its tokens (tokenize)
        self.tfidf = TfIdfModel.from_kb(kb, self._chunks)
        self.vocab = FeatureVocabulary()
        self._cache = {}
        self._surfaces = {}

    def get(self, entity: str):
        """(body TfIdfBag, granularity -> ``cnn.View``) for an entity;
        None for NULL."""
        if entity == NULL_ENTITY:
            return None
        hit = self._cache.get(entity)
        if hit is None:
            title_toks, body_toks = extract_target_views(
                self.kb.title(entity), self.kb.body(entity), memo=self._chunks)
            body = [t.surface for t in body_toks]
            hit = (self.tfidf.bag(body), {
                g: cnn.embed(self.table, surfaces, self.config.ell)
                for g, surfaces in (
                    ("tgt_title", [t.surface for t in title_toks]),
                    ("tgt_document", body))})
            self._cache[entity] = hit
        return hit

    def surface(self, mention_tokens):
        """(queries, CandidateSet, f_Q rows, f_E rows) of a mention's
        tokens: one f_Q row per query, and per candidate one f_E row per
        query without its tf-idf bucket.  Rows are tuples of hashed
        indices; all four are shared and must not be changed."""
        key = tuple(mention_tokens)
        hit = self._surfaces.get(key)
        if hit is None:
            queries = generate_queries(mention_tokens)
            cand = candidates_for(self.kb, queries)
            hit = (queries, cand,
                   [tuple(sparse.features_q(mention_tokens, q, self.vocab))
                    for q in queries],
                   [[tuple(sparse.features_e(self.kb, q, entity, self.vocab))
                     for q in queries] for entity in cand.candidates])
            self._surfaces[key] = hit
        return hit


@dataclass
class PreparedMention:
    """Everything about one mention that depends neither on the weights
    nor on the feature toggles."""
    mention: Mention
    queries: list
    cand: CandidateSet
    source_views: dict                   # granularity -> cnn.View
    target_views: list                   # per candidate: dict or None (NULL)
    features: FeatureTable               # f_Q rows, then f_E rows [t][q]
    gold_index: Optional[int]            # index into cand.candidates, or None


def prepare_mention(targets: TargetCache, doc: Document,
                    mention: Mention) -> PreparedMention:
    """Queries, candidates, sparse features and embedded views of one
    mention.  The result is shared by every model whose config differs
    from ``targets.config`` only in its toggles."""
    tfidf = targets.tfidf
    views = extract_views(doc.tokens, mention)
    queries, cand, q_rows, e_rows = targets.surface(views.mention_tokens)
    doc_bag = tfidf.bag([t.surface for t in views.document_tokens])
    tgts = [targets.get(entity) for entity in cand.candidates]
    rows = list(q_rows)
    for tgt, cand_rows in zip(tgts, e_rows):
        if tgt is None:         # NULL: its indicator is its only feature
            rows.extend(cand_rows)
            continue
        bucket = (targets.vocab.index_of(sparse.tfidf_feature(
            tfidf.cosine(doc_bag, tgt[0]))),)
        rows.extend(row + bucket for row in cand_rows)
    gold_index = None
    if mention.gold_entity is not None and mention.gold_entity in cand.candidates:
        gold_index = cand.candidates.index(mention.gold_entity)
    return PreparedMention(mention=mention, queries=queries, cand=cand,
                           source_views=cnn.embed_views(
                               targets.table, views, targets.config.ell),
                           target_views=[None if tgt is None else tgt[1]
                                         for tgt in tgts],
                           features=FeatureTable.from_rows(rows),
                           gold_index=gold_index)


def _scoring_rows(model: Model, prep: PreparedMention, x: np.ndarray):
    """``x``, one value per feature-table row, zeroed on the rows that do
    not score: with sparse features off only NULL's f_E rows score,
    since its indicator is its only signal."""
    if model.config.toggles.use_sparse:
        return x
    null = [entity == NULL_ENTITY for entity in prep.cand.candidates]
    return np.where(np.repeat([False] + null, len(prep.queries)), x, 0.0)


@dataclass
class ScoreTable:
    S: np.ndarray                 # (T, Q) pair scores
    forward: Optional[cnn.ForwardCache]   # None when dense features are off


def score_pairs(model: Model, prep: PreparedMention,
                memo: dict = None) -> ScoreTable:
    """Score every (candidate, query) pair under the model's toggles;
    dense features come from one CNN forward pass per mention and are
    shared across queries.

    ``memo``, a ``cnn.Memo`` for frozen weights only, holds this
    model's target encodings and projected embedding rows (see
    ``cnn.forward_from_matrices``); it is filled as candidates are
    scored and shared by every mention the same model scores.  Views
    that take the windows score bit-identically with and without it,
    and gathered views equal to rounding; a memoized forward pass
    cannot be backpropagated.
    """
    T = len(prep.cand.candidates)
    Q = len(prep.queries)
    dots = _scoring_rows(model, prep, prep.features.dots(model.w_sparse))
    S = dots[:Q] + dots[Q:].reshape(T, Q)
    tog = model.config.toggles
    if not tog.use_dense:
        return ScoreTable(S=S, forward=None)
    forward = cnn.forward_from_matrices(model.banks, prep.source_views,
                                        prep.target_views, tog.dense_mask,
                                        memo)
    S += (forward.fc @ model.w_dense)[:, np.newaxis]
    return ScoreTable(S=S, forward=forward)


def marginals_from_scores(S: np.ndarray):
    """Stable softmax over all pairs; returns (P(t), P(t, q))."""
    m = S.max()
    E = np.exp(S - m)
    Z = E.sum()
    Ppair = E / Z
    return Ppair.sum(axis=1), Ppair


@dataclass
class ScoredCandidate:
    entity: str
    marginal_prob: float


def infer(model: Model, prep: PreparedMention, memo: dict = None) -> list:
    """Marginal distribution over candidates, sorted by probability
    descending with ties broken by entity id.  ``memo`` is as for
    ``score_pairs``: one ``cnn.Memo`` per model, used only while its
    weights are frozen; with it, probabilities of gathered views
    equal those without it to rounding."""
    table = score_pairs(model, prep, memo)
    Pt, _ = marginals_from_scores(table.S)
    out = [ScoredCandidate(entity=entity, marginal_prob=float(p))
           for entity, p in zip(prep.cand.candidates, Pt)]
    out.sort(key=lambda s: (-s.marginal_prob, s.entity))
    return out


def link(targets: TargetCache, models, pairs):
    """Yield (prepared mention, top ScoredCandidate per model) for each
    (doc, mention) pair in order.  Each mention is prepared once, in
    ``targets``, and scored by every model, so a model's config may
    differ from ``targets.config`` only in its toggles.  Each model
    keeps its own ``cnn.Memo`` of target encodings and projected rows,
    since models differ in weights and mask; their weights must stay
    frozen meanwhile."""
    for m in models:
        if m.config.with_toggles(targets.config.toggles) != targets.config:
            raise ValueError("a scored model's config differs from the "
                             "preparing config beyond its toggles")
    memos = [cnn.Memo(m.banks, targets.table) for m in models]
    for doc, mention in pairs:
        prep = prepare_mention(targets, doc, mention)
        yield prep, [infer(m, prep, memo)[0]
                     for m, memo in zip(models, memos)]


@dataclass
class GradBundle:
    sparse: dict                 # feature index -> gradient
    theta: np.ndarray            # laid out as Model.theta; masked banks 0


def loss_and_grad(model: Model, prep: PreparedMention):
    """Negative marginal log-likelihood and its exact gradient.

    Returns None when the gold entity is missing from the candidate set
    (the caller counts these as skips).
    """
    if prep.gold_index is None:
        return None
    tog = model.config.toggles
    table = score_pairs(model, prep)
    S = table.S
    ti_gold = prep.gold_index
    m = S.max()
    lse_all = m + math.log(np.exp(S - m).sum())
    row = S[ti_gold]
    mr = row.max()
    lse_gold = mr + math.log(np.exp(row - mr).sum())
    loss = lse_all - lse_gold

    Pt, Ppair = marginals_from_scores(S)
    Pq_gold = np.exp(row - lse_gold)

    coef = Ppair.copy()
    coef[ti_gold] -= Pq_gold

    g_sparse = prep.features.gradient(_scoring_rows(
        model, prep, np.concatenate([coef.sum(axis=0), coef.ravel()])))
    if not tog.use_dense:   # no dense weight scores: read-only zeros, no copy
        return loss, GradBundle(g_sparse, np.broadcast_to(0.0, model.theta.shape))

    # a masked slot's fc column is zero and backward skips it
    t_coefs = Pt.copy()
    t_coefs[ti_gold] -= 1.0
    g_theta = np.zeros_like(model.theta)
    g_theta[:N_DENSE] = (t_coefs[:, np.newaxis] * table.forward.fc).sum(axis=0)
    cnn.backward(table.forward, t_coefs[:, np.newaxis] * model.w_dense,
                 bank_views(g_theta[N_DENSE:], model.config.k))
    return loss, GradBundle(sparse=g_sparse, theta=g_theta)


# ---------------------------------------------------------------------------
# Adadelta training
# ---------------------------------------------------------------------------

# Adadelta decay rate and conditioning constant (Zeiler 2012)
RHO = 0.95
EPS = 1e-6

# Most elements of theta that one dense step covers, so that its passes
# over the span, its gradient, both accumulators and the two scratch rows
# (256 KiB each) stay in L2.  In a sweep of 4 K to 128 K at d=300, k=150,
# 16 K and 32 K were fastest; 32 K steps an acceptance-shape model whole.
SPAN = 32 * 1024


class AdadeltaState:
    """Per-parameter running averages E[g^2] and E[dx^2]; ``g2`` and
    ``dx2`` are laid out as ``Model.theta``."""

    def __init__(self, model: Model):
        self.g2 = np.zeros_like(model.theta)
        self.dx2 = np.zeros_like(model.theta)
        self.sparse = {}     # index -> [E[g^2], E[dx^2]]
        # the blocks of theta that step (w_dense, each bank the mask
        # compares), adjacent ones merged into runs, cut into spans
        cfg = model.config
        size = cfg.k * cfg.d * cfg.ell
        needed = needed_granularities(cfg.toggles.dense_mask)
        runs = [[0, N_DENSE]]
        for i, g in enumerate(GRANULARITIES):
            start = N_DENSE + i * size
            if g in needed and runs[-1][1] == start:
                runs[-1][1] += size
            elif g in needed:
                runs.append([start, start + size])
        self._spans = [slice(lo, min(lo + SPAN, stop)) for start, stop in runs
                       for lo in range(start, stop, SPAN)]
        self._work = np.empty((2, max(s.stop - s.start for s in self._spans)))

    def _dense_step(self, x, g2, dx2, g) -> None:
        """One Adadelta step on ``x`` for gradient ``g``, in place."""
        a, b = self._work[:, :x.size]
        np.multiply(g, 1.0 - RHO, out=a)
        a *= g
        g2 *= RHO
        g2 += a                              # E[g^2]
        np.add(dx2, EPS, out=a)
        np.add(g2, EPS, out=b)
        a /= b
        np.sqrt(a, out=a)
        a *= g                               # -dx
        np.multiply(a, 1.0 - RHO, out=b)
        b *= a
        dx2 *= RHO
        dx2 += b                             # E[dx^2]
        x -= a

    def apply(self, model: Model, grads: GradBundle) -> None:
        for s in self._spans:
            self._dense_step(model.theta[s], self.g2[s], self.dx2[s],
                             grads.theta[s])
        for idx, grad in grads.sparse.items():
            st = self.sparse.get(idx)
            if st is None:
                st = [0.0, 0.0]
                self.sparse[idx] = st
            st[0] = RHO * st[0] + (1.0 - RHO) * grad * grad
            dx = -math.sqrt((st[1] + EPS) / (st[0] + EPS)) * grad
            st[1] = RHO * st[1] + (1.0 - RHO) * dx * dx
            model.w_sparse[idx] = model.w_sparse.get(idx, 0.0) + dx


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    n_mentions: int = 0
    mean_queries_per_mention: float = 0.0
    oov_rate: float = 0.0


def labeled_mentions(docs):
    """(doc, mention) for every mention with a gold entity, in corpus
    order."""
    for doc in docs:
        for mention in doc.mentions:
            if mention.gold_entity is not None:
                yield doc, mention


def prepare_corpus(targets: TargetCache, docs) -> list:
    """Prepare every labeled mention once; reused across epochs and
    shared by every toggle setting of ``targets.config``."""
    return [prepare_mention(targets, doc, mention)
            for doc, mention in labeled_mentions(docs)]


def check_epochs(epochs: int) -> None:
    if epochs < 0:
        raise ValueError("epochs must be at least 0, got %d" % epochs)


def train(model: Model, docs, kb: KnowledgeBase, table: EmbeddingTable,
          epochs: int, seed: int = 0, log=None):
    """Prepare ``docs`` and ``fit`` the model on them."""
    check_epochs(epochs)
    prepared = prepare_corpus(TargetCache(kb, table, model.config), docs)
    report = TrainReport(n_mentions=len(prepared))
    if prepared:
        report.mean_queries_per_mention = (
            sum(len(p.queries) for p in prepared) / len(prepared))
    all_surfaces = [t.surface for doc in docs for t in doc.tokens]
    report.oov_rate = table.oov_rate(all_surfaces)
    report.epochs = fit(model, prepared, epochs, seed=seed, log=log)
    return model, report


def fit(model: Model, prepared: list, epochs: int, seed: int = 0,
        log=None) -> list:
    """Adadelta training over single-example minibatches of prepared
    mentions, which are only read; returns one report row per epoch.

    Example order is reshuffled each epoch from ``seed``; with a fixed
    seed and corpus the final weights are bit-identical across runs.
    """
    check_epochs(epochs)
    state = AdadeltaState(model)
    rng = np.random.default_rng(seed)
    in_cand = sum(1 for p in prepared if p.gold_index is not None)
    rows = []
    for epoch in range(epochs):
        order = rng.permutation(len(prepared))
        total = p_gold = 0.0
        used = 0
        skipped = 0
        for i in order:
            prep = prepared[int(i)]
            out = loss_and_grad(model, prep)
            if out is None:
                skipped += 1
                continue
            loss, grads = out
            if not math.isfinite(loss):
                raise TrainingError("non-finite loss on doc %r"
                                    % prep.mention.doc_id)
            state.apply(model, grads)
            total += loss
            p_gold += math.exp(-loss)
            used += 1
        row = {
            "epoch": epoch,
            "mean_loss": total / used if used else float("nan"),
            "mean_p_gold": p_gold / used if used else float("nan"),
            "gold_recall": in_cand / len(prepared) if prepared else 0.0,
            "n_examples": used,
            "n_skipped": skipped,
        }
        rows.append(row)
        if log is not None:
            log("epoch %d: mean_loss=%.4f mean_p_gold=%.4f gold_recall=%.3f "
                "skipped=%d" % (epoch, row["mean_loss"], row["mean_p_gold"],
                                row["gold_recall"], skipped))
    return rows


# ---------------------------------------------------------------------------
# Serialization: framed binary, magic "CLMD1", trailing CRC32.
# ---------------------------------------------------------------------------

def _model_payload(model: Model) -> bytes:
    header = json.dumps({
        "config": model.config.to_dict(),
        "n_sparse": len(model.w_sparse),
    }, sort_keys=True).encode("utf-8")
    return b"".join([
        struct.pack("<I", len(header)), header,
        model.theta.astype("<f8", copy=False).tobytes(),
        np.array(sorted(model.w_sparse.items()), dtype=SPARSE_ENTRY).tobytes()])


def save_model(model: Model, path) -> None:
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, _model_payload(model))


def load_model(path) -> Model:
    _, payload = read_framed(path, MODEL_MAGIC,
                             supported_versions=(MODEL_VERSION,))
    try:
        (hlen,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(payload[4:4 + hlen].decode("utf-8"))
        config = ModelConfig.from_dict(header["config"])
        off = 4 + hlen
        n = N_DENSE + len(GRANULARITIES) * config.k * config.d * config.ell
        theta = np.frombuffer(payload, dtype="<f8", count=n,
                              offset=off).astype(float)
        off += n * 8
        n_sparse = header["n_sparse"]
        if type(n_sparse) is not int or n_sparse < 0:
            raise ValueError("n_sparse must be a non-negative integer, got %r"
                             % (n_sparse,))
        entries = np.frombuffer(payload, dtype=SPARSE_ENTRY, count=n_sparse,
                                offset=off)
        off += entries.nbytes
        idx = entries["idx"]
        if (idx[1:] <= idx[:-1]).any() or (idx >= HASH_CAPACITY).any():
            raise ValueError("sparse indices must ascend strictly below %d"
                             % HASH_CAPACITY)
        if off != len(payload):
            raise LoadError("%s: %d trailing payload bytes"
                            % (path, len(payload) - off))
    except (struct.error, KeyError, OverflowError, TypeError, ValueError,
            RecursionError) as exc:
        raise LoadError("%s: malformed model payload: %s" % (path, exc))
    if not (np.isfinite(theta).all() and np.isfinite(entries["w"]).all()):
        raise LoadError("%s: non-finite weight in model payload" % path)
    if (np.abs(theta) > WEIGHT_LIMIT).any() or \
            (np.abs(entries["w"]) > WEIGHT_LIMIT).any():
        raise LoadError("%s: model weight beyond %g in magnitude"
                        % (path, WEIGHT_LIMIT))
    return Model(config=config, theta=theta, w_sparse=dict(
        zip(entries["idx"].tolist(), entries["w"].tolist())))
