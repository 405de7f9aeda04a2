import json
import math
import struct
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from convlink import cnn, model as model_mod, sparse
from convlink.binfile import read_framed, write_framed
from convlink.config import (GRANULARITIES, N_DENSE, FeatureToggles,
                             ModelConfig, needed_granularities,
                             toggles_from_name)
from convlink.errors import (CacheError, ChecksumError, LoadError,
                             TrainingError, VersionError)
from convlink.kb import NULL_ENTITY, KnowledgeBase
from convlink.model import (EPS, MODEL_MAGIC, MODEL_VERSION, RHO, SPAN,
                            WEIGHT_LIMIT, AdadeltaState, GradBundle, Model,
                            TargetCache, _model_payload, fit, infer,
                            load_model, loss_and_grad, marginals_from_scores,
                            prepare_corpus, prepare_mention, save_model,
                            score_pairs, train)
from convlink.sparse import FeatureTable
from convlink.textproc import Document, Mention, Token
from helpers import (ABLATION_TOGGLES, MALFORMED_MODEL_HEADERS,
                     MALFORMED_SPARSE_BLOCKS, brute_force_marginals,
                     built, max_fd_relative_error, rewrite_model_header,
                     rewrite_sparse_block, table_rows, tiny_world, toks)


class TestScorePairs:
    def test_zero_weights_uniform(self):
        w = tiny_world(seed=1)
        w.model.w_sparse = {}
        w.model.theta[:] = 0.0         # w_dense and every bank
        table = score_pairs(w.model, w.prep)
        assert np.array_equal(table.S, np.zeros_like(table.S))
        pt, _ = marginals_from_scores(table.S)
        assert np.allclose(pt, 1.0 / len(pt))

    def test_single_null_candidate(self):
        w = tiny_world(seed=2)
        kb = KnowledgeBase.ingest([{"id": "E9", "title": "X", "body": ""}], [])
        prep = prepare_mention(TargetCache(kb, w.table, w.model.config),
                               w.doc, w.mention)
        assert prep.cand.candidates == [NULL_ENTITY]
        scored = infer(w.model, prep)
        assert scored[0].entity == NULL_ENTITY
        assert scored[0].marginal_prob == pytest.approx(1.0, abs=1e-12)


class TestInfer:
    def test_brute_force_oracle(self):
        for seed in range(25):
            w = tiny_world(seed=100 + seed)
            entities, pt_ref, _, _ = brute_force_marginals(w)
            scored = infer(w.model, w.prep)
            got = {s.entity: s.marginal_prob for s in scored}
            for e, p in zip(entities, pt_ref):
                assert abs(got[e] - p) < 1e-12
            assert abs(sum(got.values()) - 1.0) < 1e-9

    def test_sorted_with_tiebreak(self):
        w = tiny_world(seed=3)
        scored = infer(w.model, w.prep)
        probs = [s.marginal_prob for s in scored]
        assert probs == sorted(probs, reverse=True)
        # exact ties (zero model) resolve lexicographically
        w.model.w_sparse = {}
        w.model.w_dense[:] = 0.0
        scored = infer(w.model, w.prep)
        tied = [s.entity for s in scored
                if abs(s.marginal_prob - scored[0].marginal_prob) < 1e-15]
        assert tied == sorted(tied)

    def test_dominant_pair(self):
        S = np.zeros((3, 2))
        S[1, 0] = 100.0
        pt, _ = marginals_from_scores(S)
        assert pt[1] > 0.999

    def test_uniform_scores(self):
        S = np.full((4, 3), 2.5)
        pt, _ = marginals_from_scores(S)
        assert np.allclose(pt, 0.25, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(3, 4))
        pt1, _ = marginals_from_scores(S)
        pt2, _ = marginals_from_scores(S + 123.456)
        assert np.max(np.abs(pt1 - pt2)) < 1e-12

    def test_marginals_sum_to_one(self):
        for seed in range(10):
            w = tiny_world(seed=200 + seed)
            total = sum(s.marginal_prob for s in infer(w.model, w.prep))
            assert abs(total - 1.0) < 1e-9

    def test_pair_argmax_invariant_to_positive_scaling(self):
        # scaling all weights by c > 0 scales every pair score by c, so the
        # best-scoring (candidate, query) pair cannot change
        for seed in range(5):
            w = tiny_world(seed=300 + seed)
            S = score_pairs(w.model, w.prep).S
            best_pair = np.unravel_index(np.argmax(S), S.shape)
            for c in (0.5, 3.0):
                scaled = replace(
                    with_dense(w.model, c * w.model.w_dense),
                    w_sparse={i: c * v for i, v in w.model.w_sparse.items()})
                S2 = score_pairs(scaled, w.prep).S
                assert np.unravel_index(np.argmax(S2), S2.shape) == best_pair

    def test_marginal_argmax_not_scale_invariant(self):
        # the q-marginal is not a monotone transform of per-pair scores:
        # sum_q exp(c * s(t, q)) reweights spread-out versus peaked rows
        S = np.array([[10.0, 0.0], [6.0, 6.0]])
        pt, _ = marginals_from_scores(S)
        pt_small, _ = marginals_from_scores(0.01 * S)
        assert pt[0] > pt[1]
        assert pt_small[0] < pt_small[1]


class TestLossAndGrad:
    def test_uniform_two_by_one_is_ln2(self):
        w = tiny_world(seed=4)
        w.model.w_sparse = {}
        # keep only one query and two candidates in the prepared mention
        prep = w.prep
        Q = len(prep.queries)
        rows = table_rows(prep.features)
        prep.queries = prep.queries[:1]
        prep.features = FeatureTable.from_rows([rows[0], rows[Q], []])
        prep.cand.candidates = prep.cand.candidates[:1] + [NULL_ENTITY]
        prep.target_views = prep.target_views[:1] + [None]
        prep.gold_index = 0
        zero_dense(w.model)
        loss, grads = loss_and_grad(w.model, prep)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_separated_scores_low_loss(self):
        w = tiny_world(seed=5)
        # a dedicated indicator on the gold candidate separates it cleanly
        gi = w.prep.gold_index
        boost = 60000
        Q = len(w.prep.queries)
        rows = table_rows(w.prep.features)
        for r in range(Q + gi * Q, Q + (gi + 1) * Q):     # gold's f_E rows
            rows[r].append(boost)
        w.prep.features = FeatureTable.from_rows(rows)
        w.model.w_sparse[boost] = 40.0
        loss, grads = loss_and_grad(w.model, w.prep)
        assert loss < 1e-4
        assert np.max(np.abs(grads.theta[:N_DENSE])) < 1e-3
        assert all(abs(g) < 1e-2 for g in grads.sparse.values())

    def test_gold_missing_returns_none(self):
        w = tiny_world(seed=6, gold="E-unknown")
        assert w.prep.gold_index is None
        assert loss_and_grad(w.model, w.prep) is None

    def test_dense_gradient_formula(self):
        w = tiny_world(seed=7)
        table = score_pairs(w.model, w.prep)
        pt, _ = marginals_from_scores(table.S)
        expect = np.zeros(6)
        for ti in range(len(w.prep.cand.candidates)):
            ind = 1.0 if ti == w.prep.gold_index else 0.0
            expect += (pt[ti] - ind) * table.forward.fc[ti]
        _, grads = loss_and_grad(w.model, w.prep)
        assert np.max(np.abs(grads.theta[:N_DENSE] - expect)) < 1e-12

    def test_loss_matches_brute_force(self):
        for seed in range(10):
            w = tiny_world(seed=400 + seed)
            _, _, _, nll_ref = brute_force_marginals(w)
            loss, _ = loss_and_grad(w.model, w.prep)
            assert loss == pytest.approx(nll_ref, abs=1e-10)

    def test_finite_differences_all_parameters(self):
        w = tiny_world(seed=8, min_kink_gap=1e-3)
        assert max_fd_relative_error(w.model, w.prep, h=1e-5) < 1e-4

    def test_finite_differences_through_row_stores(self, monkeypatch):
        # criterion 1's h and bound at d=64 > GATHER_COST, where training
        # gathers every view longer than ell from a fresh store
        gathered = []
        real = cnn.RowStore.gather
        monkeypatch.setattr(cnn.RowStore, "gather", lambda store, view: (
            gathered.append(view) or real(store, view)))
        for seed in range(3):
            w = tiny_world(seed=seed, d=64, min_kink_gap=1e-3)
            views = list(w.prep.source_views.values()) + [
                v for tgt in w.prep.target_views if tgt is not None
                for v in tgt.values()]
            gathered.clear()
            loss_and_grad(w.model, w.prep)
            long_views = {v for v in views if v.n > w.model.config.ell}
            assert long_views and set(gathered) == long_views
            assert max_fd_relative_error(w.model, w.prep, h=1e-5) < 1e-4

    def test_untouched_sparse_index_has_no_gradient(self):
        w = tiny_world(seed=9)
        _, grads = loss_and_grad(w.model, w.prep)
        active = set(w.prep.features.keys)
        assert set(grads.sparse) <= active


def zero_dense(model):
    model.w_dense[:] = 0.0


def with_dense(model, w_dense):
    """A copy of ``model`` with its own theta, whose cosine weights are
    ``w_dense``; the sparse weights stay shared."""
    out = replace(model, theta=model.theta.copy())
    out.w_dense[:] = w_dense
    return out


def bank_spans(model, theta_like):
    """granularity -> the (k, d*ell) span of a vector laid out as
    ``model.theta``."""
    return model_mod.bank_views(theta_like[N_DENSE:], model.config.k)


class TestFcCaching:
    def test_cache_equals_fresh_recompute(self):
        # brute_force_marginals recomputes f_C per (t, q) pair; agreement
        # with score_pairs (one f_C per t) proves the cache is sound
        for seed in range(5):
            w = tiny_world(seed=500 + seed)
            entities, pt_ref, pair_ref, _ = brute_force_marginals(w)
            table = score_pairs(w.model, w.prep)
            pt, pair = marginals_from_scores(table.S)
            for ti in range(len(entities)):
                for qi in range(len(w.prep.queries)):
                    assert abs(pair[ti, qi] - pair_ref[(ti, qi)]) < 1e-12


class TestAblationConsistency:
    def test_dense_disabled_equals_zero_dense_weights(self):
        w = tiny_world(seed=10)
        sparse_only = replace(
            w.model, config=w.model.config.with_toggles(
                toggles_from_name("sparse-only")))
        prep_sparse = prepare_mention(
            TargetCache(w.kb, w.table, sparse_only.config), w.doc, w.mention)
        zeroed = with_dense(w.model, np.zeros(6))
        a = infer(sparse_only, prep_sparse)
        b = infer(zeroed, w.prep)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.entity == sb.entity
            assert sa.marginal_prob == pytest.approx(sb.marginal_prob,
                                                     abs=1e-12)

    def test_cnn_only_keeps_null_indicator_only(self):
        w = tiny_world(seed=11, toggles=toggles_from_name("cnn-only"))
        # the preparation carries every sparse feature, each with a weight
        table = w.prep.features
        assert all(np.bincount(table.row, minlength=table.n_rows))
        null_idx = w.targets.vocab.index_of("e:null")
        # with the dense part zeroed, S is the sparse part alone: the NULL
        # indicator on the NULL row and nothing elsewhere
        S = score_pairs(with_dense(w.model, np.zeros(6)), w.prep).S
        for ti, entity in enumerate(w.prep.cand.candidates):
            expect = w.model.w_sparse[null_idx] if entity == NULL_ENTITY else 0.0
            assert S[ti].tolist() == [expect] * len(w.prep.queries)
        _, grads = loss_and_grad(w.model, w.prep)
        assert list(grads.sparse) == [null_idx]

    def test_one_preparation_serves_every_ablation_config(self):
        for seed in range(5):
            w = tiny_world(seed=600 + seed)
            for name, toggles in ABLATION_TOGGLES:
                m = replace(w.model,
                            config=w.model.config.with_toggles(toggles))
                world = SimpleNamespace(**{**vars(w), "model": m})
                entities, pt_ref, _, nll_ref = brute_force_marginals(world)
                got = {s.entity: s.marginal_prob for s in infer(m, w.prep)}
                for e, p in zip(entities, pt_ref):
                    assert abs(got[e] - p) < 1e-12, name
                loss, _ = loss_and_grad(m, w.prep)
                assert loss == pytest.approx(nll_ref, abs=1e-12), name


def micro_corpus(n_docs=12, seed=0, extra_articles=()):
    """Separable two-entity corpus: the gold entity is decided by a
    content token the dense features can read."""
    rng = np.random.default_rng(seed)
    words_a = ["redx", "redy", "redz"]
    words_b = ["bluex", "bluey", "bluez"]
    kb = KnowledgeBase.ingest(
        [{"id": "EA", "title": "Thing_One", "body": " ".join(words_a * 4)},
         {"id": "EB", "title": "Thing_Two", "body": " ".join(words_b * 4)}]
        + list(extra_articles),
        [{"anchor_text": "things", "entity_id": "EA"}] * 3
        + [{"anchor_text": "things", "entity_id": "EB"}] * 1)
    docs = []
    for i in range(n_docs):
        gold = "EA" if i % 2 == 0 else "EB"
        topic = words_a if gold == "EA" else words_b
        words = [topic[int(j)] for j in rng.integers(3, size=6)]
        tokens = toks(*(words[:3] + ["Things"] + words[3:]))
        mention = Mention("m%d" % i, 3, 4, gold)
        docs.append(Document("m%d" % i, tokens, [mention]))
    return kb, docs


def micro_table(seed=0, d=6):
    from helpers import make_table
    return make_table(["redx", "redy", "redz", "bluex", "bluey", "bluez",
                       "things", "thing", "one", "two"], dim=d, seed=seed)


def micro_model(seed=0, toggles=None, d=6):
    config = ModelConfig(d=d, k=4, ell=2, init_seed=seed,
                         toggles=toggles or FeatureToggles())
    return Model.initialize(config)


def memo_world(toggles=None, d=6):
    """A model with random dense weights and the prepared mentions of
    the micro corpus: each has EA, EB and NULL as candidates."""
    kb, docs = micro_corpus()
    table = micro_table(d=d)
    m = micro_model(seed=4, toggles=toggles, d=d)
    m.w_dense[:] = np.random.default_rng(4).normal(size=6)
    targets = TargetCache(kb, table, m.config)
    preps = [prepare_mention(targets, d, d.mentions[0]) for d in docs]
    for prep in preps:
        assert sorted(prep.cand.candidates) == sorted(["EA", "EB",
                                                       NULL_ENTITY])
    return m, preps


def memo_of(m, preps):
    """A new ``cnn.Memo`` of ``m``'s banks over the table of ``preps``."""
    return cnn.Memo(m.banks, preps[0].source_views["src_mention"].table)


def gathered_banks(memo):
    """The granularities whose store in ``memo`` holds rows."""
    return {g for g, store in memo.stores.items() if store.stored > 0}


def target_views(preps, needed):
    """Each distinct target ``cnn.View`` of ``preps`` whose granularity
    is in ``needed``, mapped to that granularity."""
    return {view: g for prep in preps for views in prep.target_views
            if views is not None for g, view in views.items() if g in needed}


class TestTargetMemo:
    @pytest.mark.parametrize("name", ["full", "cnn-only", "pair:ment*title"])
    def test_memo_gives_bit_identical_marginals(self, name):
        m, preps = memo_world(dict(ABLATION_TOGGLES)[name])
        memo = memo_of(m, preps)
        for prep in preps:
            want = [(s.entity, s.marginal_prob) for s in infer(m, prep)]
            got = [(s.entity, s.marginal_prob) for s in infer(m, prep, memo)]
            assert got == want
        # only the views the mask needs are encoded and memoized, one
        # per entity (EA and EB) and granularity
        needed = ({"tgt_title"} if name == "pair:ment*title"
                  else {"tgt_title", "tgt_document"})
        views = target_views(preps, needed)
        assert len(views) == 2 * len(needed)
        assert set(memo) == set(views)
        for enc in memo.values():
            assert enc.view is None and enc.pre is None
            assert enc.topic.shape == (m.config.k,)
        assert gathered_banks(memo) == set()

    def test_acceptance_width_creates_no_row_store(self):
        # at d=16 <= GATHER_COST every view takes the windows, so the
        # memo's stores, one per bank, stay empty
        m, preps = memo_world(d=16)
        memo = memo_of(m, preps)
        for prep in preps:
            assert infer(m, prep, memo) == infer(m, prep)
        assert len(memo.stores) == len(GRANULARITIES) and len(memo) == 4
        assert all(s.stored == 0 for s in memo.stores.values())

    def test_acceptance_width_routes_no_view_to_a_store(self, monkeypatch):
        gathered = []
        real = cnn.RowStore.gather
        monkeypatch.setattr(cnn.RowStore, "gather", lambda store, view: (
            gathered.append(view) or real(store, view)))
        m, preps = memo_world(d=16)
        memo = memo_of(m, preps)
        for prep in preps:
            infer(m, prep, memo)
            infer(m, prep)
            loss_and_grad(m, prep)
        assert gathered == [] and gathered_banks(memo) == set()
        views = [v for prep in preps for v in prep.source_views.values()]
        views += target_views(preps, GRANULARITIES)
        assert all("distinct" not in built(v) for v in views)

    def test_targets_encoded_once_per_entity(self, monkeypatch):
        m, preps = memo_world()
        calls = []
        real = cnn._encode
        monkeypatch.setattr(cnn, "_encode", lambda M, view, store=None: (
            calls.append(view) or real(M, view, store)))
        memo = memo_of(m, preps)
        for prep in preps:
            infer(m, prep, memo)
        views = target_views(preps, {"tgt_title", "tgt_document"})
        assert sorted(views[v] for v in calls if v in views) == \
            ["tgt_document"] * 2 + ["tgt_title"] * 2
        assert len(calls) == 4 + 3 * len(preps)

    def test_memoized_forward_cannot_backpropagate(self):
        m, preps = memo_world()
        table = score_pairs(m, preps[0], memo_of(m, preps))
        assert table.forward.memoized
        grads = model_mod.bank_views(np.zeros_like(m.theta[N_DENSE:]),
                                     m.config.k)
        upstream = np.ones_like(table.forward.fc)
        with pytest.raises(CacheError):
            cnn.backward(table.forward, upstream, grads)
        # the same mention without a memo backpropagates
        cnn.backward(score_pairs(m, preps[0]).forward, upstream, grads)


def projected_rows(preps, needed):
    """Granularity -> the embedding-table rows of every view of
    ``preps`` longer than ell whose granularity is in ``needed``: at d
    > GATHER_COST, the views a memo's stores gather."""
    rows = {}
    for prep in preps:
        views = list(prep.source_views.items()) + [
            item for tgt in prep.target_views if tgt is not None
            for item in tgt.items()]
        for g, view in views:
            assert view.d > cnn.GATHER_COST
            if g in needed and view.n > view.ell:
                rows.setdefault(g, set()).update(view.rows.tolist())
    return rows


def stored_rows(store):
    """The table rows a ``cnn.RowStore`` holds, the OOV row as -1."""
    oov = len(store.slot) - 1
    return {-1 if r == oov else r
            for r in np.flatnonzero(store.slot >= 0).tolist()}


class TestRowStore:
    """The memo's projected rows, at a width where every view longer
    than ell, the micro corpus's contexts, documents and bodies, takes
    the store."""

    @pytest.mark.parametrize("name", ["full", "cnn-only", "pair:doc*doc"])
    def test_marginals_match_encoding_per_mention(self, name):
        toggles = dict(ABLATION_TOGGLES)[name]
        m, preps = memo_world(toggles, d=64)
        memo = memo_of(m, preps)
        for prep in preps:
            want = infer(m, prep)
            got = infer(m, prep, memo)
            assert [s.entity for s in got] == [s.entity for s in want]
            assert max(abs(a.marginal_prob - b.marginal_prob)
                       for a, b in zip(got, want)) <= 1e-12
        needed = needed_granularities(toggles.dense_mask)
        assert gathered_banks(memo) == set(projected_rows(preps, needed)) == (
            needed - {"src_mention", "tgt_title"})

    def test_each_row_projected_once_per_bank(self, monkeypatch):
        m, preps = memo_world(d=64)
        projected = {g: [] for g in GRANULARITIES}
        real = cnn.RowStore._project

        def spy(store, U):
            [g] = [g for g, bank in m.banks.items() if bank is store.M]
            projected[g].append(U.copy())
            return real(store, U)

        monkeypatch.setattr(cnn.RowStore, "_project", spy)
        memo = memo_of(m, preps)
        for _ in range(2):          # the second pass projects no row
            for prep in preps:
                infer(m, prep, memo)
        rows = projected_rows(preps, GRANULARITIES)
        assert set(rows) == gathered_banks(memo)
        for g, ids in rows.items():
            assert stored_rows(memo.stores[g]) == ids
            # distinct table rows have distinct vectors, OOV the zero row
            U = np.vstack(projected[g])
            assert len(U) == len(np.unique(U, axis=0)) == len(ids)
        assert not any(projected[g] for g in GRANULARITIES if g not in rows)

    def test_memoized_context_matches_its_windows_encoding(self):
        m, preps = memo_world(d=64)
        ell, bank = m.config.ell, m.banks["src_context"]
        memo = memo_of(m, preps)
        for prep in preps:
            got = score_pairs(m, prep, memo).forward.source["src_context"]
            view = prep.source_views["src_context"]
            assert view.n > ell and "windows" not in built(view)
            want = np.maximum(view.windows @ bank.T, 0.0).sum(axis=0)
            assert np.max(np.abs(got.topic - want)) <= 1e-12
        assert "src_context" in gathered_banks(memo)

    def test_memoized_infer_never_embeds_long_views(self):
        m, preps = memo_world(d=64)
        memo = memo_of(m, preps)
        for prep in preps:
            infer(m, prep, memo)
        views = [v for prep in preps for v in prep.source_views.values()]
        views += target_views(preps, GRANULARITIES)
        long_views = [v for v in views if v.n > m.config.ell]
        assert long_views and gathered_banks(memo) == {
            "src_context", "src_document", "tgt_document"}
        for v in views:
            assert {"X", "windows"} & built(v) == (
                set() if v.n > m.config.ell else {"X", "windows"})

    def test_memoized_forward_cannot_backpropagate(self):
        m, preps = memo_world(d=64)
        prep = next(p for p in preps
                    if p.source_views["src_document"].n > m.config.ell)
        memo = memo_of(m, preps)
        table = score_pairs(m, prep, memo)
        assert table.forward.memoized
        assert "src_document" in gathered_banks(memo)
        grads = model_mod.bank_views(np.zeros_like(m.theta[N_DENSE:]),
                                     m.config.k)
        with pytest.raises(CacheError):
            cnn.backward(table.forward, np.ones_like(table.forward.fc), grads)


class TestTrain:
    def test_zero_epochs_unchanged(self):
        kb, docs = micro_corpus()
        table = micro_table()
        m = micro_model()
        before = {g: m.banks[g].copy() for g in GRANULARITIES}
        m2, report = train(m, docs, kb, table, epochs=0, seed=5)
        assert m2 is m
        assert not m2.w_sparse
        assert np.array_equal(m2.w_dense, np.zeros(6))
        for g in GRANULARITIES:
            assert np.array_equal(m2.banks[g], before[g])
        assert report.epochs == []
        assert report.n_mentions == len(docs)

    def test_deterministic_replay(self):
        kb, docs = micro_corpus()
        table = micro_table()
        m1, _ = train(micro_model(seed=3), docs, kb, table, epochs=3, seed=9)
        m2, _ = train(micro_model(seed=3), docs, kb, table, epochs=3, seed=9)
        assert m1.w_sparse == m2.w_sparse
        assert np.array_equal(m1.w_dense, m2.w_dense)
        for g in GRANULARITIES:
            assert np.array_equal(m1.banks[g],
                                  m2.banks[g])

    def test_separable_corpus_loss_drops(self):
        kb, docs = micro_corpus(n_docs=20)
        table = micro_table()
        m, report = train(micro_model(), docs, kb, table, epochs=30, seed=1)
        first = report.epochs[0]["mean_loss"]
        last = report.epochs[-1]["mean_loss"]
        assert last < 0.1 * first

    def test_gold_recall_reported(self):
        kb, docs = micro_corpus()
        table = micro_table()
        _, report = train(micro_model(), docs, kb, table, epochs=1, seed=0)
        assert report.epochs[0]["gold_recall"] == 1.0
        assert 1.0 <= report.mean_queries_per_mention <= 20

    def test_nan_aborts_with_doc_id(self):
        kb, docs = micro_corpus(n_docs=2)
        table = micro_table()
        m = micro_model()
        m.w_dense[:] = np.nan
        with pytest.raises(TrainingError) as err:
            train(m, docs, kb, table, epochs=1, seed=0)
        assert "m" in str(err.value)

    def test_mean_p_gold_is_the_gold_marginal_before_the_step(self):
        m, preps = memo_world()
        prep = preps[0]
        gold = prep.cand.candidates[prep.gold_index]
        want = {s.entity: s.marginal_prob for s in infer(m, prep)}[gold]
        [row] = fit(m, [prep], epochs=1)
        assert row["n_examples"] == 1
        assert row["mean_p_gold"] == pytest.approx(want, rel=1e-12)

    def test_skips_mentions_missing_gold(self):
        kb, docs = micro_corpus(n_docs=4)
        docs[0].mentions[0] = Mention(docs[0].doc_id, 3, 4, "E-absent")
        table = micro_table()
        _, report = train(micro_model(), docs, kb, table, epochs=1, seed=0)
        assert report.epochs[0]["n_skipped"] == 1
        assert report.epochs[0]["n_examples"] == 3


class TestMaskedBanks:
    @pytest.mark.parametrize("name,toggles", ABLATION_TOGGLES)
    def test_gradients_only_for_compared_banks(self, name, toggles):
        w = tiny_world(seed=21, toggles=toggles)
        _, grads = loss_and_grad(w.model, w.prep)
        # the banks the mask does not compare keep all-zero spans;
        # sparse-only compares none
        spans = bank_spans(w.model, grads.theta)
        assert {g for g, b in spans.items() if np.any(b)} == \
            needed_granularities(toggles.dense_mask)

    @pytest.mark.parametrize("name,toggles", ABLATION_TOGGLES)
    def test_fit_leaves_masked_banks_bit_identical(self, name, toggles):
        kb, docs = micro_corpus()
        m = micro_model(seed=2, toggles=toggles)
        before = {g: m.banks[g].copy() for g in GRANULARITIES}
        train(m, docs, kb, micro_table(), epochs=2, seed=0)
        needed = needed_granularities(toggles.dense_mask)
        for g in GRANULARITIES:
            after = m.banks[g]
            assert (after.tobytes() == before[g].tobytes()) == (
                g not in needed), g
        if not needed:
            assert m.w_dense.tobytes() == np.zeros(N_DENSE).tobytes()

    def test_use_dense_follows_the_mask(self):
        assert toggles_from_name("sparse-only") == FeatureToggles(
            use_sparse=True, dense_mask=(False,) * N_DENSE)
        assert not toggles_from_name("sparse-only").use_dense
        assert toggles_from_name("pair:src_mention*tgt_title").use_dense
        with pytest.raises(TypeError):
            FeatureToggles(use_dense=False)


def span_model(toggles):
    """A model whose banks each hold a little more than two spans, so
    that every run of live blocks crosses at least two span edges and
    ends mid-span."""
    d, ell = 4, 2
    m = Model.initialize(ModelConfig(d=d, k=2 * SPAN // (d * ell) + 3,
                                     ell=ell, toggles=toggles))
    size = m.banks["src_mention"].size
    assert size > 2 * SPAN and size % SPAN
    return m


def live_entries(model):
    """Which entries of ``model.theta`` step: ``w_dense`` and every bank
    the mask compares."""
    live = np.zeros(model.theta.size, dtype=bool)
    live[:N_DENSE] = True
    needed = needed_granularities(model.config.toggles.dense_mask)
    for g, bank in bank_spans(model, live).items():
        bank[:] = g in needed
    return live


def reference_step(x, g2, dx2, g):
    """One Adadelta step on a whole block, as written before spans."""
    g2 *= RHO
    g2 += (g * (1.0 - RHO)) * g
    dx = -np.sqrt((dx2 + EPS) / (g2 + EPS)) * g
    dx2 *= RHO
    dx2 += (dx * (1.0 - RHO)) * dx
    x += dx


class TestAdadelta:
    @pytest.mark.parametrize("name,toggles", ABLATION_TOGGLES)
    def test_spans_cover_the_live_blocks_once(self, name, toggles):
        m = span_model(toggles)
        spans = AdadeltaState(m)._spans
        covered = np.zeros(m.theta.size, dtype=int)
        for s in spans:
            assert 0 < s.stop - s.start <= SPAN
            covered[s] += 1
        assert covered.max() == 1
        assert np.array_equal(covered == 1, live_entries(m))
        # adjacent blocks merge before the cut: a short span ends a run
        for s, nxt in zip(spans, spans[1:]):
            assert s.stop - s.start == SPAN or s.stop < nxt.start
        if not toggles.use_dense:
            assert spans == [slice(0, N_DENSE)]

    @pytest.mark.parametrize("name,toggles", ABLATION_TOGGLES)
    def test_spans_step_bit_identical_to_whole_blocks(self, name, toggles):
        m = span_model(toggles)
        state = AdadeltaState(m)
        x = m.theta.copy()
        g2, dx2 = np.zeros_like(x), np.zeros_like(x)
        size = m.banks["src_mention"].size
        needed = needed_granularities(toggles.dense_mask)
        blocks = [slice(0, N_DENSE)] + [
            slice(N_DENSE + i * size, N_DENSE + (i + 1) * size)
            for i, g in enumerate(GRANULARITIES) if g in needed]
        rng = np.random.default_rng(3)
        for _ in range(4):
            # masked banks get a gradient too, which neither side applies
            g = rng.normal(size=m.theta.size)
            state.apply(m, GradBundle(sparse={}, theta=g))
            for s in blocks:
                reference_step(x[s], g2[s], dx2[s], g[s])
            assert m.theta.tobytes() == x.tobytes()
            assert state.g2.tobytes() == g2.tobytes()
            assert state.dx2.tobytes() == dx2.tobytes()

    def test_update_formulas(self):
        # one dense step against the recurrences computed by hand
        m = micro_model()
        state = AdadeltaState(m)
        from convlink.model import GradBundle
        g = np.array([1.0, -2.0, 0.0, 0.5, 0.0, 0.0])
        banks = m.theta[N_DENSE:].copy()
        grad = np.zeros_like(m.theta)
        grad[:N_DENSE] = g
        state.apply(m, GradBundle(sparse={7: 2.0}, theta=grad))
        eg2 = 0.05 * g * g
        dx = -np.sqrt((0.0 + 1e-6) / (eg2 + 1e-6)) * g
        assert np.allclose(m.w_dense, dx, atol=1e-15)
        assert np.allclose(state.g2[:N_DENSE], eg2, atol=1e-15)
        assert np.allclose(state.dx2[:N_DENSE], 0.05 * dx * dx, atol=1e-15)
        # zero bank gradients leave the banks and their accumulators
        assert m.theta[N_DENSE:].tobytes() == banks.tobytes()
        assert not np.any(state.g2[N_DENSE:])
        assert not np.any(state.dx2[N_DENSE:])
        eg2s = 0.05 * 4.0
        dxs = -math.sqrt(1e-6 / (eg2s + 1e-6)) * 2.0
        assert m.w_sparse[7] == pytest.approx(dxs, abs=1e-15)

    def test_accumulators_nonnegative(self):
        kb, docs = micro_corpus()
        table = micro_table()
        m = micro_model()
        # train a little and inspect the state via a fresh run
        prepared = prepare_corpus(TargetCache(kb, table, m.config), docs)
        state = AdadeltaState(m)
        for prep in prepared:
            loss, grads = loss_and_grad(m, prep)
            state.apply(m, grads)
        assert np.all(state.g2 >= 0) and np.all(state.dx2 >= 0)
        assert all(v[0] >= 0 and v[1] >= 0 for v in state.sparse.values())


class TestThetaLayout:
    def test_dense_weights_and_banks_are_views_of_theta(self):
        m = micro_model(seed=1)
        cfg = m.config
        size = cfg.k * cfg.d * cfg.ell
        assert m.theta.shape == (N_DENSE + len(GRANULARITIES) * size,)
        assert np.shares_memory(m.w_dense, m.theta)
        for i, g in enumerate(GRANULARITIES):
            M = m.banks[g]
            assert np.shares_memory(M, m.theta)
            start = N_DENSE + i * size
            assert M.ravel().tobytes() == \
                m.theta[start:start + size].tobytes()

    def test_stale_assignments_fail(self):
        m = micro_model()
        with pytest.raises(AttributeError):
            m.w_dense = np.ones(N_DENSE)
        with pytest.raises(AttributeError):
            m.banks = m.banks
        assert not np.any(m.w_dense)

    def test_payload_fixed_block_is_theta(self, tmp_path):
        kb, docs = micro_corpus()
        m, _ = train(micro_model(), docs, kb, micro_table(), epochs=1, seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        _, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
        (hlen,) = struct.unpack_from("<I", payload, 0)
        start = 4 + hlen
        assert payload[start:start + m.theta.nbytes] == m.theta.tobytes()
        assert len(payload) == start + m.theta.nbytes + 16 * len(m.w_sparse)
        assert load_model(path).theta.tobytes() == m.theta.tobytes()

    def test_sparse_only_gradient_allocates_no_theta(self):
        # no dense weight scores, so the gradient is one shared zero
        w = tiny_world(seed=21, toggles=toggles_from_name("sparse-only"))
        _, grads = loss_and_grad(w.model, w.prep)
        assert grads.theta.shape == w.model.theta.shape
        assert grads.theta.strides == (0,) and not np.any(grads.theta)

    @pytest.mark.parametrize("where", ["w_dense", "bank", "sparse"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected_on_load(self, tmp_path, where, value):
        m = micro_model()
        m.w_sparse[5] = 0.5
        if where == "w_dense":
            m.w_dense[2] = value
        elif where == "bank":
            m.theta[-1] = value
        else:
            m.w_sparse[5] = value
        path = tmp_path / "model.bin"
        # a well-framed file with a valid checksum
        write_framed(path, MODEL_MAGIC, MODEL_VERSION, _model_payload(m))
        with pytest.raises(LoadError) as err:
            load_model(path)
        assert str(err.value) == \
            "%s: non-finite weight in model payload" % path

    @pytest.mark.parametrize("where", ["w_dense", "bank", "sparse"])
    @pytest.mark.parametrize("value", [-2 * WEIGHT_LIMIT, 1.58e307])
    def test_weight_beyond_limit_rejected_on_load(self, tmp_path, where,
                                                  value):
        m = micro_model()
        m.w_sparse[5] = 0.5
        if where == "w_dense":
            m.w_dense[2] = value
        elif where == "bank":
            m.theta[-1] = value
        else:
            m.w_sparse[5] = value
        path = tmp_path / "model.bin"
        write_framed(path, MODEL_MAGIC, MODEL_VERSION, _model_payload(m))
        with pytest.raises(LoadError) as err:
            load_model(path)
        assert str(err.value) == \
            "%s: model weight beyond 1e+06 in magnitude" % path
        m.w_dense[2] = m.theta[-1] = m.w_sparse[5] = -WEIGHT_LIMIT
        save_model(m, path)
        assert load_model(path).w_sparse[5] == -WEIGHT_LIMIT


def prepared_views(preps):
    """Every source and target ``cnn.View`` of the prepared mentions."""
    return [v for prep in preps for views in
            [prep.source_views, *filter(None, prep.target_views)]
            for v in views.values()]


class TestPreparedWindows:
    def test_long_views_share_memory_with_embedded_rows(self, monkeypatch):
        # every view longer than ell that takes the windows builds them
        # as a strided view of its own embedded rows, not a copy
        from convlink.embeddings import EmbeddingTable
        embedded = []
        real = EmbeddingTable.lookup_sequence
        monkeypatch.setattr(EmbeddingTable, "lookup_sequence",
                            lambda self, rows: embedded.append(
                                real(self, rows)) or embedded[-1])
        m, preps = memo_world()
        ell = m.config.ell
        views = prepared_views(preps)
        long_views = [v for v in views
                      if not v.gathers and v.windows.shape[0] > 1]
        assert long_views
        for v in long_views:
            assert v.n > ell and np.shares_memory(v.windows, v.X)
            assert any(X is v.X for X in embedded)

    def test_training_keeps_embedded_rows_only_where_windows_are_taken(
            self):
        # at d > GATHER_COST the backward builds a gathered view's
        # windows from the table on each read, and the view keeps neither
        # them nor its embedded rows; views of at most ell tokens keep both
        m, preps = memo_world(d=64)
        fit(m, preps, epochs=1)
        views = prepared_views(preps)
        gathered = [v for v in views if v.gathers]
        assert gathered and len(gathered) < len(views)
        for v in views:
            assert built(v) - {"distinct"} == (
                set() if v.gathers else {"X", "windows"})

    def test_target_cache_builds_windows_once_per_entity(self, monkeypatch):
        calls = []
        real = cnn.window_matrix
        monkeypatch.setattr(cnn, "window_matrix", lambda X, ell: (
            calls.append(X.shape) or real(X, ell)))
        m, preps = memo_world()
        assert calls == []          # preparation builds no windows
        for _ in range(2):          # the second pass builds none
            for prep in preps:
                score_pairs(m, prep)
            # three source views per mention, two target views per entity
            assert len(calls) == 3 * len(preps) + 2 * 2
        for prep in preps[1:]:
            for a, b in zip(preps[0].target_views, prep.target_views):
                if a is not None:
                    assert all(a[g] is b[g] for g in a)


def surface_corpus():
    """The micro corpus with its one mention surface, "Things", under
    three taggings; each tagging occurs in documents of both topics,
    whose tf-idf buckets differ, and with both gold entities.  Articles
    that no anchor names give the topic words a positive idf."""
    kb, docs = micro_corpus(extra_articles=[
        {"id": "F%d" % i, "title": "Filler", "body": "one two"}
        for i in range(3)])
    tags = [(None, None), ("NNS", None), ("NNS", "ORG")]
    for i, doc in enumerate(docs):
        m = doc.mentions[0]
        doc.tokens[m.start] = Token(doc.tokens[m.start].surface,
                                    *tags[i // 2 % 3])
    return kb, docs, micro_model().config


def mention_key(doc):
    m = doc.mentions[0]
    return tuple(doc.tokens[m.start:m.end])


class TestSurfaceMemo:
    def test_shared_cache_is_bit_identical_to_fresh_caches(self):
        kb, docs, config = surface_corpus()
        table = micro_table()
        shared = prepare_corpus(TargetCache(kb, table, config), docs)
        by_key = {}
        for doc, a in zip(docs, shared):
            b = prepare_mention(TargetCache(kb, table, config), doc,
                                doc.mentions[0])
            assert a.queries == b.queries
            assert a.cand.candidates == b.cand.candidates
            assert a.gold_index == b.gold_index
            assert a.features.keys == b.features.keys
            assert a.features.n_rows == b.features.n_rows
            for name in ("slot", "val", "row"):
                x, y = getattr(a.features, name), getattr(b.features, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            by_key.setdefault(mention_key(doc), []).append(a)
        # one surface, three taggings, and under each both golds and
        # more than one feature table (the tf-idf buckets differ)
        assert len({tuple(t.surface for t in key) for key in by_key}) == 1
        assert len(by_key) == 3
        for preps in by_key.values():
            assert {p.gold_index for p in preps} == {0, 1}
            assert len({(tuple(p.features.keys), p.features.slot.tobytes(),
                         p.features.row.tobytes()) for p in preps}) > 1

    def test_weight_free_work_once_per_token_tuple(self, monkeypatch):
        calls = {}
        for module, name in [(model_mod, "generate_queries"),
                             (model_mod, "candidates_for"),
                             (sparse, "features_q"), (sparse, "features_e")]:
            real = getattr(module, name)
            calls[name] = []
            monkeypatch.setattr(module, name, lambda *args, real=real,
                                name=name, **kw: calls[name].append(args)
                                or real(*args, **kw))
        gets = []
        real_get = TargetCache.get
        monkeypatch.setattr(TargetCache, "get", lambda self, entity: (
            gets.append(entity) or real_get(self, entity)))
        kb, docs, config = surface_corpus()
        targets = TargetCache(kb, micro_table(), config)
        preps = prepare_corpus(targets, docs) + prepare_corpus(targets, docs)
        first = {}
        for doc, prep in zip(docs, preps):
            first.setdefault(mention_key(doc), prep)
        assert [tuple(args[0]) for args in calls["generate_queries"]] == \
            list(first)
        assert len(calls["candidates_for"]) == len(first)
        assert len(calls["features_q"]) == sum(
            len(p.queries) for p in first.values())
        assert len(calls["features_e"]) == sum(
            len(p.queries) * len(p.cand.candidates) for p in first.values())
        # still one lookup per candidate per mention
        assert gets == [e for p in preps for e in p.cand.candidates]


class TestChunkMemo:
    def test_each_kb_chunk_split_once_per_target_cache(self, monkeypatch):
        from convlink import textproc

        def record(owner, name):
            calls, real = [], getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, **kw: (
                calls.append(args) or real(*args, **kw)))
            return calls

        split = record(textproc, "_split_chunk")
        from_kb = record(sparse.TfIdfModel, "from_kb")
        target_views = record(model_mod, "extract_target_views")
        kb = KnowledgeBase.ingest(
            [{"id": "PF", "title": "Pink_Floyd",
              "body": "Pink Floyd, the U.K. band; Pink Floyd (band)."},
             {"id": "FL", "title": "Floyd",
              "body": "Floyd, a U.K. name. Floyd Pink"},
             {"id": "PK", "title": "Pink_(band)", "body": "Pink (band)."}],
            [{"anchor_text": "floyd", "entity_id": "FL"}])
        bodies = {c for e in kb.entities for c in kb.body(e).split()}
        titles = {c for e in kb.entities
                  for c in kb.title(e).replace("_", " ").split()}
        for _ in range(2):       # the second cache starts cold
            split.clear()
            from_kb.clear()
            target_views.clear()
            targets = TargetCache(kb, micro_table(), micro_model().config)
            assert sorted(c for c, in split) == sorted(bodies)
            assert len(from_kb) == 1
            for entity in ["PF", "FL", "PF", "PK", "FL", NULL_ENTITY]:
                targets.get(entity)
            assert sorted(c for c, in split) == sorted(bodies | titles)
            assert len(from_kb) == 1
            assert [args[0] for args in target_views] == [
                "Pink_Floyd", "Floyd", "Pink_(band)"]


class TestSaveLoad:
    def test_roundtrip_identical_predictions(self, tmp_path):
        kb, docs = micro_corpus()
        table = micro_table()
        m, _ = train(micro_model(), docs, kb, table, epochs=2, seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        m2 = load_model(path)
        t1 = TargetCache(kb, table, m.config)
        t2 = TargetCache(kb, table, m2.config)
        for doc in docs:
            for mention in doc.mentions:
                p1 = prepare_mention(t1, doc, mention)
                p2 = prepare_mention(t2, doc, mention)
                r1 = infer(m, p1)
                r2 = infer(m2, p2)
                assert [(s.entity, s.marginal_prob) for s in r1] == \
                    [(s.entity, s.marginal_prob) for s in r2]

    def test_truncated_file(self, tmp_path):
        m = micro_model()
        path = tmp_path / "model.bin"
        save_model(m, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_future_version(self, tmp_path):
        m = micro_model()
        path = tmp_path / "model.bin"
        save_model(m, path)
        data = bytearray(path.read_bytes())
        data[5] = 9
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_model(path)

    def test_version_1_file_rejected(self, tmp_path):
        # version 1 headers carried the vocabulary mode and version 2
        # headers the use_dense toggle, both dropped from this format
        m = micro_model()
        path = tmp_path / "model.bin"
        save_model(m, path)
        _, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
        for version in (1, 2):
            write_framed(path, MODEL_MAGIC, version, payload)
            with pytest.raises(VersionError) as err:
                load_model(path)
            assert str(err.value) == ("%s: unsupported format version %d"
                                      % (path, version))

    @pytest.mark.parametrize("kind", sorted(MALFORMED_MODEL_HEADERS))
    def test_malformed_header_names_file(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        save_model(micro_model(), path)
        rewrite_model_header(path, MALFORMED_MODEL_HEADERS[kind])
        with pytest.raises(LoadError) as err:
            load_model(path)
        assert str(err.value).startswith(
            "%s: malformed model payload: " % path)

    def test_header_has_no_vocab_entry(self, tmp_path):
        path = tmp_path / "model.bin"
        m = micro_model()
        save_model(m, path)
        _, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
        (hlen,) = struct.unpack_from("<I", payload, 0)
        header = json.loads(payload[4:4 + hlen].decode("utf-8"))
        assert sorted(header) == ["config", "n_sparse"]
        assert sorted(header["config"]["toggles"]) == ["dense_mask",
                                                       "use_sparse"]
        assert "vocab_mode" not in header["config"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"WRONG" + bytes(30))
        with pytest.raises(LoadError):
            load_model(path)

    def test_save_deterministic_bytes(self, tmp_path):
        m1 = micro_model(seed=4)
        m2 = micro_model(seed=4)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(m1, p1)
        save_model(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_version_3_header_bytes(self, tmp_path):
        # the header as train writes it; another layout needs a new version
        path = tmp_path / "model.bin"
        save_model(Model.initialize(ModelConfig(d=16, k=48, init_seed=1)),
                   path)
        version, payload = read_framed(path, MODEL_MAGIC, (MODEL_VERSION,))
        (hlen,) = struct.unpack_from("<I", payload, 0)
        assert version == 3
        assert payload[4:4 + hlen] == (
            b'{"config": {"context_window": 10, "d": 16, "doc_cap": 2000, '
            b'"ell": 5, "hash_capacity": 1048576, "init_seed": 1, "k": 48, '
            b'"toggles": {"dense_mask": [true, true, true, true, true, true],'
            b' "use_sparse": true}, "top_k": 30}, "n_sparse": 0}')

    @pytest.mark.parametrize("kind", sorted(MALFORMED_SPARSE_BLOCKS))
    def test_sparse_block_must_ascend_below_capacity(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        save_model(micro_model(), path)
        rewrite_sparse_block(path, [(3, 0.5), (2 ** 20 - 1, -1.0)])
        assert load_model(path).w_sparse == {3: 0.5, 2 ** 20 - 1: -1.0}
        rewrite_sparse_block(path, MALFORMED_SPARSE_BLOCKS[kind])
        with pytest.raises(LoadError) as err:
            load_model(path)
        assert str(err.value) == (
            "%s: malformed model payload: sparse indices must ascend "
            "strictly below 1048576" % path)
