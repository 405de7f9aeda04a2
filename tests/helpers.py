import copy
import json
import math
import struct
import zlib
from types import SimpleNamespace

import numpy as np

from convlink import cnn
from convlink.binfile import read_framed, write_framed
from convlink.config import (CONTEXT_WINDOW, SRC_CONTEXT, SRC_DOCUMENT,
                             FeatureToggles, ModelConfig, toggles_from_name)
from convlink.embeddings import EmbeddingTable
from convlink.kb import KnowledgeBase
from convlink.model import (MODEL_MAGIC, MODEL_VERSION, SPARSE_ENTRY, Model,
                            TargetCache, loss_and_grad, prepare_mention,
                            score_pairs)
from convlink.textproc import Document, Mention, Token


def make_table(tokens, dim=4, seed=0):
    """Random unit-vector embedding table over the given tokens."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(len(tokens), dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return EmbeddingTable(dim=dim, vocab={t: i for i, t in enumerate(tokens)},
                          vectors=vecs)


def matrix_view(X, ell):
    """The ``cnn.View`` of the embedded (n, d) sequence ``X``, each row
    taken as a distinct token: row i of a table holding X's rows."""
    n, d = X.shape
    table = EmbeddingTable(dim=d, vocab={"r%d" % i: i for i in range(n)},
                           vectors=np.array(X, dtype=float))
    return cnn.View(np.arange(n, dtype=np.intp), table, ell)


def encode(M, X, ell):
    """The topic vector of the embedded (n, d) sequence ``X`` under the
    filter bank ``M``, each row taken as a distinct token."""
    return cnn._encode(M, matrix_view(X, ell)).topic


def built(view):
    """Which of a ``cnn.View``'s parts built on first use it holds."""
    return {name for name in ("X", "windows", "distinct")
            if getattr(view, "_" + name) is not None}


def write_embeddings(path, vectors):
    """Write a word2vec text file from {token: iterable} pairs."""
    items = list(vectors.items())
    dim = len(next(iter(vectors.values())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(items), dim))
        for tok, vec in items:
            fh.write(tok + " " + " ".join(repr(float(x)) for x in vec) + "\n")
    return path


def kb_payload(**edits):
    """A zlib JSON KB payload: one entity E1 linked once from "one",
    with ``edits`` replacing top-level keys (None deletes one)."""
    data = {"entities": {"E1": {"title": "One", "body": "one two"}},
            "anchor_index": {"one": {"E1": 1}}, "skipped_anchors": 0}
    data.update(edits)
    return zlib.compress(json.dumps(
        {k: v for k, v in data.items() if v is not None}).encode("utf-8"))


# KB payloads behind a valid frame and checksum that are still unusable
MALFORMED_KB_PAYLOADS = {
    "not-zlib": b"not a zlib stream",
    "missing-entities": zlib.compress(b'{"anchor_index": {}}'),
    "payload-not-object": zlib.compress(b"[]"),
    "entities-list": kb_payload(entities=[{"title": "One", "body": "x"}]),
    "entity-number": kb_payload(entities={"E1": 5}),
    "entity-missing-body": kb_payload(entities={"E1": {"title": "One"}}),
    "entity-title-number": kb_payload(
        entities={"E1": {"title": 1, "body": "one two"}}),
    "anchor-string": kb_payload(anchor_index={"one": "E1"}),
    "anchor-count-string": kb_payload(anchor_index={"one": {"E1": "1"}}),
    "anchor-unknown-entity": kb_payload(anchor_index={"one": {"E9": 1}}),
    "skipped-anchors-string": kb_payload(skipped_anchors="3"),
    # well-typed, but not what ingest-kb writes
    "entity-null-id": kb_payload(
        entities={"<NULL>": {"title": "Null", "body": "one two"}},
        anchor_index={"one": {"<NULL>": 1}}),
    "entity-title-blank": kb_payload(
        entities={"E1": {"title": " \t", "body": "one two"}}),
    "anchor-count-zero": kb_payload(anchor_index={"one": {"E1": 0}}),
    "anchor-count-negative": kb_payload(anchor_index={"one": {"E1": -3}}),
    "anchor-not-normalized": kb_payload(anchor_index={"One": {"E1": 1}}),
    "anchor-empty": kb_payload(anchor_index={"": {"E1": 1}}),
    "anchor-no-entity": kb_payload(anchor_index={"one": {}}),
    "skipped-anchors-negative": kb_payload(skipped_anchors=-1),
    # deeper than json.loads can recurse, so written as raw bytes
    "deeply-nested": zlib.compress(b"[" * 100000),
}


# The five feature configurations of the ablation grid
ABLATION_TOGGLES = [
    ("full", toggles_from_name("full")),
    ("sparse-only", toggles_from_name("sparse-only")),
    ("cnn-only", toggles_from_name("cnn-only")),
    ("pair:doc*doc", toggles_from_name("pair:src_document*tgt_document")),
    ("pair:ment*title", toggles_from_name("pair:src_mention*tgt_title")),
]


def rewrite_model_header(path, edit):
    """Apply ``edit`` to a saved model's JSON header in place, keeping a
    valid frame and checksum; an ``edit`` that returns bytes gives the
    raw header."""
    _, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
    (hlen,) = struct.unpack_from("<I", payload, 0)
    header = edit(json.loads(payload[4:4 + hlen].decode("utf-8")))
    raw = header if isinstance(header, bytes) else json.dumps(
        header, sort_keys=True).encode("utf-8")
    write_framed(path, MODEL_MAGIC, MODEL_VERSION,
                 struct.pack("<I", len(raw)) + raw + payload[4 + hlen:])


def rewrite_sparse_block(path, entries):
    """Replace a saved model's sparse block with ``entries``, (index,
    weight) pairs written in the order given, keeping ``n_sparse``, the
    frame and the checksum valid."""
    _, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
    (hlen,) = struct.unpack_from("<I", payload, 0)
    header = json.loads(payload[4:4 + hlen].decode("utf-8"))
    theta = payload[4 + hlen:len(payload) - 16 * header["n_sparse"]]
    header["n_sparse"] = len(entries)
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    write_framed(path, MODEL_MAGIC, MODEL_VERSION, b"".join([
        struct.pack("<I", len(raw)), raw, theta,
        np.array(entries, dtype=SPARSE_ENTRY).tobytes()]))


# Sparse blocks that save_model never writes: indices must ascend
# strictly and stay below the hashed vocabulary's capacity
MALFORMED_SPARSE_BLOCKS = {
    "duplicate-index": [(5, 1.0), (5, 7.0)],
    "descending": [(7, 1.0), (5, 1.0)],
    "index-at-capacity": [(2 ** 20, 1.0)],
    "index-max-u64": [(2 ** 64 - 1, 1.0)],
}


def with_key(header, path, value):
    """A copy of ``header`` with the nested key ``path`` set to
    ``value``, or deleted when ``value`` is None."""
    out = copy.deepcopy(header)
    node = out
    for key in path[:-1]:
        node = node[key]
    if value is None:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


# Header edits that leave a model file checksummed but unreadable
MALFORMED_MODEL_HEADERS = {
    "unknown-config-key":
        lambda h: with_key(h, ("config", "vocab_mode"), "hashed"),
    "unknown-toggles-key":
        lambda h: with_key(h, ("config", "toggles", "use_magic"), True),
    "missing-toggles": lambda h: with_key(h, ("config", "toggles"), None),
    "toggles-not-object": lambda h: with_key(h, ("config", "toggles"), 5),
    "header-not-object": lambda h: [h],
    "n-sparse-negative": lambda h: with_key(h, ("n_sparse",), -1),
    "n-sparse-string": lambda h: with_key(h, ("n_sparse",), "2"),
    "n-sparse-bool": lambda h: with_key(h, ("n_sparse",), True),
    "n-sparse-past-end": lambda h: with_key(h, ("n_sparse",), h["n_sparse"] + 1),
    "context-window-float":
        lambda h: with_key(h, ("config", "context_window"), 2.5),
    "top-k-bool": lambda h: with_key(h, ("config", "top_k"), True),
    "init-seed-string": lambda h: with_key(h, ("config", "init_seed"), "s"),
    "dense-mask-nulls":
        lambda h: with_key(h, ("config", "toggles", "dense_mask"), [None] * 6),
    "dense-mask-ints":
        lambda h: with_key(h, ("config", "toggles", "dense_mask"), [1] * 6),
    "dense-mask-string":
        lambda h: with_key(h, ("config", "toggles", "dense_mask"), "abcdef"),
    "dense-mask-missing":
        lambda h: with_key(h, ("config", "toggles", "dense_mask"), None),
    "use-sparse-string":
        lambda h: with_key(h, ("config", "toggles", "use_sparse"), "no"),
    "use-sparse-missing":
        lambda h: with_key(h, ("config", "toggles", "use_sparse"), None),
    "top-k-missing": lambda h: with_key(h, ("config", "top_k"), None),
    "init-seed-negative": lambda h: with_key(h, ("config", "init_seed"), -1),
    # sizes past a C ssize_t once crashed the payload reader
    "n-sparse-huge": lambda h: with_key(h, ("n_sparse",), 10 ** 30),
    "k-huge": lambda h: with_key(h, ("config", "k"), 10 ** 30),
    "d-huge": lambda h: with_key(h, ("config", "d"), 10 ** 30),
    "ell-huge": lambda h: with_key(h, ("config", "ell"), 10 ** 30),
    "toggles-unknown-keys": lambda h: with_key(
        h, ("config", "toggles"), {"Ik": 3286, ":\u0081": -264409}),
    # the fixed preparation settings at values that train never writes
    "context-window-3": lambda h: with_key(h, ("config", "context_window"), 3),
    "doc-cap-40": lambda h: with_key(h, ("config", "doc_cap"), 40),
    "top-k-31": lambda h: with_key(h, ("config", "top_k"), 31),
    "hash-capacity-2**70":
        lambda h: with_key(h, ("config", "hash_capacity"), 2 ** 70),
    # deeper than json.loads can recurse, so written as raw bytes
    "deeply-nested": lambda h: b"[" * 100000,
}


def toks(*surfaces):
    return [Token(s) for s in surfaces]


def encodings(cache):
    """Every ``cnn.Encoding`` of a CNN forward pass."""
    return [enc for views in [cache.source] + cache.targets
            if views is not None for enc in views.values()]


def entry_indices(table):
    """The hashed index of each entry of a FeatureTable, in entry order."""
    return [table.keys[s] for s in table.slot.tolist()]


def table_rows(table):
    """A FeatureTable's rows as index lists that ``from_rows`` rebuilds
    it from (a merged entry of value n repeats its index n times)."""
    rows = [[] for _ in range(table.n_rows)]
    for idx, v, r in zip(entry_indices(table), table.val.tolist(),
                         table.row.tolist()):
        rows[r] += [idx] * int(v)
    return rows


TINY_WORDS = (["w%d" % i for i in range(15)]
              + ["ones", "one", "alpha", "beta", "gamma"])   # 20 tokens


def tiny_world(seed, d=4, k=3, ell=2, toggles=None, gold="E1",
               min_kink_gap=0.0):
    """A complete random micro-instance: 20-word vocabulary, two real
    candidates plus NULL, exactly two latent queries.  The 26-token
    document is longer than the widest context view (2 * CONTEXT_WINDOW
    + 1 tokens), so the context view is a strict sub-window of the
    document view.

    With ``min_kink_gap`` > 0, content is resampled until every encoder
    pre-activation stays at least that far from the ReLU kink and all
    topic-vector norms are healthy.
    """
    for attempt in range(300):
        rng = np.random.default_rng(seed * 1000 + attempt)
        table = make_table(TINY_WORDS, dim=d, seed=seed * 7 + attempt)
        body1 = " ".join(TINY_WORDS[int(i)]
                         for i in rng.integers(len(TINY_WORDS), size=6))
        body2 = " ".join(TINY_WORDS[int(i)]
                         for i in rng.integers(len(TINY_WORDS), size=6))
        kb = KnowledgeBase.ingest(
            [{"id": "E1", "title": "Alpha_One", "body": body1},
             {"id": "E2", "title": "Beta_One", "body": body2}],
            [{"anchor_text": "ones", "entity_id": "E1"}] * 3
            + [{"anchor_text": "ones", "entity_id": "E2"}] * 1
            + [{"anchor_text": "one", "entity_id": "E2"}] * 2)
        config = ModelConfig(d=d, k=k, ell=ell, init_seed=seed,
                             toggles=toggles or FeatureToggles())
        model = Model.initialize(config)
        model.w_dense[:] = rng.normal(size=6) * 0.8
        words = [TINY_WORDS[int(i)] for i in
                 rng.integers(len(TINY_WORDS), size=2 * CONTEXT_WINDOW + 5)]
        pos = int(rng.integers(0, len(words) + 1))
        doc_tokens = toks(*(words[:pos] + ["Ones"] + words[pos:]))
        mention = Mention("doc-%d" % seed, pos, pos + 1, gold)
        doc = Document(mention.doc_id, doc_tokens, [mention])
        targets = TargetCache(kb, table, config)
        prep = prepare_mention(targets, doc, mention)
        assert len(prep.queries) == 2
        assert len(prep.cand.candidates) == 3
        assert (len(prep.source_views[SRC_CONTEXT].X)
                < len(prep.source_views[SRC_DOCUMENT].X))
        for idx in entry_indices(prep.features):
            if idx not in model.w_sparse:
                model.w_sparse[idx] = float(rng.normal() * 0.4)
        if min_kink_gap > 0.0 and model.config.toggles.use_dense:
            encs = encodings(score_pairs(model, prep).forward)
            gaps = [np.min(np.abs(enc.pre)) for enc in encs]
            norms = [enc.norm for enc in encs]
            if min(gaps) <= min_kink_gap or min(norms) <= 1e-6:
                continue
        return SimpleNamespace(model=model, kb=kb, table=table,
                               targets=targets, doc=doc, mention=mention,
                               prep=prep)
    raise AssertionError("could not build a kink-free tiny world")


def loss_only(model, prep):
    """The marginal NLL of ``prep``'s gold entity, from scores alone."""
    S = score_pairs(model, prep).S
    m = S.max()
    lse_all = m + math.log(np.exp(S - m).sum())
    row = S[prep.gold_index]
    mr = row.max()
    return lse_all - (mr + math.log(np.exp(row - mr).sum()))


def max_fd_relative_error(model, prep, h=1e-5):
    """Largest relative gap between ``loss_and_grad``'s gradient and a
    central finite difference of the loss, over every entry of
    ``model.theta`` (dense weights and filter banks) and every sparse
    weight."""
    _, grads = loss_and_grad(model, prep)

    def rel(params, key, analytic):
        orig = params[key]
        params[key] = orig + h
        up = loss_only(model, prep)
        params[key] = orig - h
        dn = loss_only(model, prep)
        params[key] = orig
        est = (up - dn) / (2 * h)
        return abs(est - analytic) / max(abs(est), abs(analytic), 1e-6)

    checks = [(model.theta, i, grads.theta[i])
              for i in range(model.theta.size)]
    checks += [(model.w_sparse, idx, grads.sparse.get(idx, 0.0))
               for idx in list(model.w_sparse)]
    return max(rel(*check) for check in checks)


def plain_cosine(u, w):
    """Cosine similarity, 0 when either norm is below 1e-12."""
    nu = math.sqrt(sum(x * x for x in u))
    nw = math.sqrt(sum(x * x for x in w))
    if nu < 1e-12 or nw < 1e-12:
        return 0.0
    return sum(a * b for a, b in zip(u, w)) / (nu * nw)


def brute_force_marginals(world):
    """Independent scorer: re-derive every (candidate, query) score from
    scratch (views, feature strings, dense features recomputed per pair
    with the direct-summation reference encoder, no caching) and
    normalize with plain exponentials.

    Returns (entity order, P(t), P(t, q), gold NLL or None).
    """
    from convlink.config import COSINE_PAIRS, HASH_CAPACITY
    from convlink.kb import NULL_ENTITY
    from convlink.sparse import (NULL_FEATURE, entity_feature_strings,
                                 fnv1a64, query_feature_strings,
                                 tfidf_feature)
    from convlink.textproc import extract_target_views, extract_views
    from test_cnn import reference_encode

    model, kb, table = world.model, world.kb, world.table
    tfidf = world.targets.tfidf
    prep, mention = world.prep, world.mention
    cfg = model.config
    tog = cfg.toggles
    views = extract_views(world.doc.tokens, mention)
    doc_surf = [t.surface for t in views.document_tokens]

    def topic(granularity, tokens):
        X = table.lookup_sequence(np.array([table.row(t.surface)
                                            for t in tokens], dtype=np.intp))
        return reference_encode(model.banks[granularity], X, cfg.ell)

    entities = list(prep.cand.candidates)
    queries = list(prep.queries)
    raw = {}
    for ti, entity in enumerate(entities):
        for qi, q in enumerate(queries):
            s = 0.0
            if entity == NULL_ENTITY:
                feats = [NULL_FEATURE]
            elif tog.use_sparse:
                title_toks, body_toks = extract_target_views(
                    kb.title(entity), kb.body(entity))
                feats = entity_feature_strings(kb, q, entity) + [
                    tfidf_feature(tfidf.cosine(
                        tfidf.bag(doc_surf),
                        tfidf.bag([t.surface for t in body_toks])))]
            else:
                feats = []
            if tog.use_sparse:
                feats = feats + query_feature_strings(views.mention_tokens, q)
            for f in feats:
                s += model.w_sparse.get(fnv1a64(f) % HASH_CAPACITY, 0.0)
            if tog.use_dense and entity != NULL_ENTITY:
                title_toks, body_toks = extract_target_views(
                    kb.title(entity), kb.body(entity))
                topics = {
                    "src_mention": topic("src_mention", views.mention_tokens),
                    "src_context": topic("src_context", views.context_tokens),
                    "src_document": topic("src_document",
                                          views.document_tokens),
                    "tgt_title": topic("tgt_title", title_toks),
                    "tgt_document": topic("tgt_document", body_toks),
                }
                for i, (src, tgt) in enumerate(COSINE_PAIRS):
                    if tog.dense_mask[i]:
                        s += model.w_dense[i] * plain_cosine(topics[src],
                                                             topics[tgt])
            raw[(ti, qi)] = s
    Z = sum(math.exp(v) for v in raw.values())
    pair = {k: math.exp(v) / Z for k, v in raw.items()}
    pt = [sum(pair[(ti, qi)] for qi in range(len(queries)))
          for ti in range(len(entities))]
    nll = None
    if mention.gold_entity in entities:
        gi = entities.index(mention.gold_entity)
        nll = -math.log(pt[gi])
    return entities, pt, pair, nll
