"""Sparse indicator features over a hashed vocabulary.

Two families: query-shape features, which describe how a query was
derived from its mention and never look at the candidate entity, and
query-entity features, which capture anchor-count priors, title string
match, and a discretized tf-idf cosine between the source document and
the candidate's article body.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .config import HASH_CAPACITY
from .kb import NULL_ENTITY, KnowledgeBase, Query, normalize_anchor

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes; platform-independent."""
    h = FNV_OFFSET
    for b in text.encode("utf-8"):
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


class FeatureVocabulary:
    """Maps feature strings to integer indices by hashing.

    index = fnv1a64(feature) mod HASH_CAPACITY: identical across runs and
    platforms; collisions are accepted.  Each feature string is hashed
    once per vocabulary and its index remembered, since most strings
    recur across mentions.
    """

    def __init__(self):
        self._index = {}

    def index_of(self, feature: str) -> int:
        idx = self._index.get(feature)
        if idx is None:
            idx = fnv1a64(feature) % HASH_CAPACITY
            self._index[feature] = idx
        return idx


@dataclass(frozen=True)
class FeatureTable:
    """The sparse feature vectors (rows) of one mention as flat arrays of
    entries, in row order and within a row in ascending index order;
    both passes below add their terms in that order, from 0.0."""
    keys: list                  # each hashed index once, ascending
    slot: np.ndarray            # entry -> position in keys
    val: np.ndarray             # entry -> value
    row: np.ndarray             # entry -> row
    n_rows: int

    @classmethod
    def from_rows(cls, rows) -> "FeatureTable":
        """One row per list of hashed indices; an index repeated within
        a row (colliding features) merges into one entry by summing."""
        lengths = [len(r) for r in rows]
        keys = sorted(set(chain.from_iterable(rows)))
        position = {idx: i for i, idx in enumerate(keys)}
        slot = np.fromiter(map(position.__getitem__, chain.from_iterable(rows)),
                           np.intp, sum(lengths))
        # (row, slot) pairs as one sortable number; unique counts repeats
        width = max(len(keys), 1)
        pairs, counts = np.unique(
            np.repeat(np.arange(len(rows)), lengths) * width + slot,
            return_counts=True)
        return cls(keys=keys, slot=pairs % width, val=counts.astype(float),
                   row=pairs // width, n_rows=len(rows))

    def dots(self, weights: dict) -> np.ndarray:
        """(n_rows,) dot product of each row with ``weights`` (index ->
        weight; absent indices weigh 0)."""
        w = np.array([weights.get(k, 0.0) for k in self.keys])
        return np.bincount(self.row, weights=w[self.slot] * self.val,
                           minlength=self.n_rows)

    def gradient(self, coef: np.ndarray) -> dict:
        """index -> sum of coef[row] * value over its entries: the
        gradient of ``coef . dots(w)`` with respect to w.  Only indices
        that an entry with a nonzero coefficient touches are present."""
        c = coef[self.row]
        g = np.bincount(self.slot, weights=c * self.val,
                        minlength=len(self.keys))
        touched = np.zeros(len(self.keys), dtype=bool)
        touched[self.slot[c != 0.0]] = True
        return {k: gk for k, gk, t in zip(self.keys, g.tolist(),
                                          touched.tolist()) if t}


# ---------------------------------------------------------------------------
# Query-shape features (candidate-independent)
# ---------------------------------------------------------------------------

def _length_bucket(n: int) -> str:
    return str(n) if n <= 3 else "4+"


def query_feature_strings(mention_tokens, query: Query) -> list:
    feats = []
    flags = sorted(query.flags)
    for flag in flags:
        feats.append("q:flag=%s" % flag)
    bucket = _length_bucket(len(mention_tokens))
    feats.append("q:flags=%s|mlen=%s" % ("+".join(flags), bucket))
    words = query.text.split()
    feats.append("q:first=%s" % words[0])
    feats.append("q:last=%s" % words[-1])
    if all(t.pos is not None for t in query.tokens):
        feats.append("q:pos=%s" % "-".join(t.pos for t in query.tokens))
    if all(t.ner is not None for t in query.tokens):
        feats.append("q:ner=%s" % "-".join(t.ner for t in query.tokens))
    return feats


def features_q(mention_tokens, query: Query,
               vocab: FeatureVocabulary) -> list:
    return [vocab.index_of(f)
            for f in query_feature_strings(mention_tokens, query)]


# ---------------------------------------------------------------------------
# Query-entity features
# ---------------------------------------------------------------------------

NULL_FEATURE = "e:null"

TFIDF_BUCKET_WIDTH = 0.05
N_TFIDF_BUCKETS = 20


def _count_bucket(count: int) -> int:
    """0 for unseen, else 1 + floor(log2 count): 0, [1,2), [2,4), [4,8), ..."""
    return count.bit_length()


def _rank_bucket(rank: int) -> str:
    if rank <= 2:
        return str(rank)
    return "3-5" if rank <= 5 else "6+"


def tfidf_bucket(cos: float) -> int:
    return min(int(cos / TFIDF_BUCKET_WIDTH), N_TFIDF_BUCKETS - 1)


def _title_match(query_text: str, title: str):
    t = normalize_anchor(title.replace("_", " "))
    q = query_text
    if q == t:
        return "exact"
    if t.startswith(q):
        return "prefix"
    if q in t:
        return "substring"
    return None


def entity_feature_strings(kb: KnowledgeBase, query: Query, entity) -> list:
    """The f_E features of a (query, entity) pair that the source document
    does not affect; a non-NULL pair also gets ``tfidf_feature``."""
    if entity == NULL_ENTITY:
        return [NULL_FEATURE]
    count = rank = 0
    for i, (eid, n) in enumerate(kb.ranked_entities(query.text), start=1):
        if eid == entity:
            count, rank = n, i
            break
    feats = ["e:count_bucket=%d" % _count_bucket(count)]
    if count > 0:
        feats.append("e:rank=%s" % _rank_bucket(rank))
    match = _title_match(query.text, kb.title(entity))
    if match is not None:
        feats.append("e:title=%s" % match)
    return feats


def features_e(kb: KnowledgeBase, query: Query, entity,
               vocab: FeatureVocabulary) -> list:
    return [vocab.index_of(f)
            for f in entity_feature_strings(kb, query, entity)]


def tfidf_feature(tfidf_cosine: float) -> str:
    """The one f_E feature of a non-NULL candidate that reads the source
    document: its discretized tf-idf cosine with the entity's article
    body, the same for every query."""
    return "e:tfidf_bucket=%d" % tfidf_bucket(tfidf_cosine)


# ---------------------------------------------------------------------------
# tf-idf over the knowledge-base article corpus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TfIdfBag:
    """A text's tf-idf weights (case-folded token -> positive weight)
    and their Euclidean norm."""
    weights: dict
    norm: float


class TfIdfModel:
    """Bag-of-words tf-idf with raw term counts.

    idf(t) = max(0, ln(corpus_size / (1 + df(t)))); the clamp keeps all
    weights nonnegative so cosines stay in [0, 1].  Tokens are
    case-folded.  Each token's idf is computed once per model.
    """

    def __init__(self, df: dict, corpus_size: int):
        self.df = df
        self.corpus_size = corpus_size
        self._idf = {}

    @classmethod
    def from_documents(cls, token_lists) -> "TfIdfModel":
        df = Counter()
        n = 0
        for tokens in token_lists:
            n += 1
            df.update({t.lower() for t in tokens})
        return cls(dict(df), n)

    @classmethod
    def from_kb(cls, kb: KnowledgeBase, memo: dict = None) -> "TfIdfModel":
        """Document frequencies over the KB's article bodies, tokenized
        through ``memo`` (see ``textproc.tokenize``)."""
        from .textproc import tokenize
        bodies = ([t.surface for t in tokenize(kb.body(eid), memo)]
                  for eid in sorted(kb.entities))
        return cls.from_documents(bodies)

    def idf(self, token: str) -> float:
        idf = self._idf.get(token)
        if idf is None:
            idf = 0.0 if self.corpus_size == 0 else max(0.0, math.log(
                self.corpus_size / (1 + self.df.get(token, 0))))
            self._idf[token] = idf
        return idf

    def bag(self, tokens) -> TfIdfBag:
        """A text's weights, computed once so that every cosine it takes
        part in reuses them."""
        weights = {}
        for tok, count in Counter(t.lower() for t in tokens).items():
            w = count * self.idf(tok)
            if w > 0.0:
                weights[tok] = w
        return TfIdfBag(weights,
                        math.sqrt(sum(w * w for w in weights.values())))

    def cosine(self, a: TfIdfBag, b: TfIdfBag) -> float:
        """Cosine of two bags from ``bag``; 0 when either side is empty or
        carries no positive weight."""
        wa = a.weights
        wb = b.weights
        if not wa or not wb:
            return 0.0
        dot = 0.0
        for tok, w in wa.items():
            if tok in wb:
                dot += w * wb[tok]
        if dot == 0.0:
            return 0.0
        return min(1.0, max(0.0, dot / (a.norm * b.norm)))
