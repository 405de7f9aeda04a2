import filecmp
import json
from dataclasses import replace

import numpy as np
import pytest

from convlink import model
from convlink.config import FeatureToggles, ModelConfig, toggles_from_name
from convlink.errors import SpecError
from convlink.evalharness import (EvalRow, evaluate, inspect_filters,
                                  run_ablation, score_predictions,
                                  topic_purity)
from convlink.kb import NULL_ENTITY, KnowledgeBase
from convlink.model import Model, save_model, train
from convlink.sparse import FeatureVocabulary, TfIdfModel
from convlink.embeddings import load_word2vec
from convlink.synthetic import (MENTION_PREFIX, MENTION_SUFFIX,
                                SyntheticSpec, generate)
from convlink.textproc import Document, Mention, load_corpus
from helpers import ABLATION_TOGGLES, make_table, toks


def tiny_spec(**overrides):
    base = dict(n_topics=2, vocab_per_topic=12, n_entities=4,
                mention_ambiguity=2, n_train_docs=30, n_test_docs=10,
                misleading_fraction=0.4, muddy_fraction=0.2,
                anchor_skew=4.0, seed=7, embedding_dim=8,
                phrases_per_topic=4, body_tokens=20, filler_vocab_size=20,
                filler_min=6, filler_max=10)
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSyntheticGenerator:
    def test_byte_identical_reruns(self, tmp_path):
        a = generate(tiny_spec(), tmp_path / "a")
        b = generate(tiny_spec(), tmp_path / "b")
        for name in a.paths:
            assert filecmp.cmp(a.paths[name], b.paths[name], shallow=False), name

    def test_different_seeds_differ(self, tmp_path):
        a = generate(tiny_spec(seed=1), tmp_path / "a")
        b = generate(tiny_spec(seed=2), tmp_path / "b")
        assert not filecmp.cmp(a.paths["train.jsonl"], b.paths["train.jsonl"],
                               shallow=False)

    def test_infeasible_specs_rejected(self, tmp_path):
        with pytest.raises(SpecError):
            generate(tiny_spec(mention_ambiguity=8), tmp_path / "x")
        with pytest.raises(SpecError):
            generate(tiny_spec(misleading_fraction=0.9, muddy_fraction=0.3),
                     tmp_path / "y")
        with pytest.raises(SpecError):
            generate(tiny_spec(n_topics=0), tmp_path / "z")
        with pytest.raises(SpecError):
            generate(tiny_spec(mention_ambiguity=1, misleading_fraction=0.5),
                     tmp_path / "w")

    def test_misleading_fraction_exact(self, tmp_path):
        data = generate(tiny_spec(n_train_docs=40, misleading_fraction=0.5,
                                  muddy_fraction=0.25), tmp_path / "m")
        docs = load_corpus(data.paths["train.jsonl"])
        kb = _load_kb(data)
        misled = 0
        for doc in docs:
            m = doc.mentions[0]
            surface = doc.tokens[m.start + 1].surface.lower()
            ranked = kb.ranked_entities(surface)
            if ranked[0][0] != m.gold_entity:
                misled += 1
        assert misled == 20

    def test_doc_and_body_vocab_disjoint(self, tmp_path):
        data = generate(tiny_spec(), tmp_path / "d")
        kb = _load_kb(data)
        docs = load_corpus(data.paths["train.jsonl"])
        doc_tokens = {t.surface for d in docs for t in d.tokens}
        body_tokens = {w for e in kb.entities.values()
                       for w in e["body"].split()}
        assert not (doc_tokens & body_tokens)

    def test_document_kinds_recorded(self, tmp_path):
        data = generate(tiny_spec(n_train_docs=40, misleading_fraction=0.5,
                                  muddy_fraction=0.25), tmp_path / "k")
        with open(data.paths["metadata.json"], encoding="utf-8") as fh:
            kinds = json.load(fh)["documents"]
        assert kinds == data.metadata["documents"]
        docs = load_corpus(data.paths["train.jsonl"])
        train = [kinds[doc.doc_id] for doc in docs]
        assert sum(k["kind"] == "muddy" for k in train) == 10
        assert sum(k["misleading"] for k in train) == 20
        assert not any(k["misleading"] for k in train if k["kind"] == "muddy")
        # the kind matches the topical tokens away from the mention's two
        # gold phrases: none, one distractor phrase, or three
        far_tokens = {"muddy": 0, "light-distractor": 5,
                      "heavy-distractor": 15}
        seen = set()
        for doc, kind in zip(docs, train):
            m = doc.mentions[0]
            far = [t for i, t in enumerate(doc.tokens)
                   if t.surface.startswith("top")
                   and not m.start - 5 <= i < m.end + 5]
            assert len(far) == far_tokens[kind["kind"]], doc.doc_id
            seen.add(kind["kind"])
        assert seen == set(far_tokens)

    def test_topical_phrases_off_document_edges(self, tmp_path):
        # valid windows cover edge tokens less often than inner ones
        spec = tiny_spec()
        data = generate(spec, tmp_path / "e")
        edge = spec.filler_min // 2
        for name in ("train.jsonl", "test.jsonl"):
            for doc in load_corpus(data.paths[name]):
                ends = doc.tokens[:edge] + doc.tokens[-edge:]
                assert all(t.surface.startswith("fill") for t in ends)

    def test_mention_markers_have_no_vectors(self, tmp_path):
        table = load_word2vec(generate(tiny_spec(), tmp_path / "v")
                              .paths["embeddings.txt"])
        assert MENTION_PREFIX not in table
        assert MENTION_SUFFIX not in table


def _load_kb(data):
    def read(path):
        with open(path, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    return KnowledgeBase.ingest(read(data.paths["articles.jsonl"]),
                                read(data.paths["anchors.jsonl"]))


def oracle_corpus():
    """Unambiguous world plus one mention whose gold is missing from the
    KB: a confident model reaches accuracy == gold_recall < 1."""
    kb = KnowledgeBase.ingest(
        [{"id": "EA", "title": "Alpha", "body": "aaa bbb"},
         {"id": "EB", "title": "Beta", "body": "ccc ddd"}],
        [{"anchor_text": "alpha", "entity_id": "EA"}] * 3
        + [{"anchor_text": "beta", "entity_id": "EB"}] * 3)
    docs = [
        Document("d0", toks("xx", "Alpha", "yy"), [Mention("d0", 1, 2, "EA")]),
        Document("d1", toks("xx", "Beta", "yy"), [Mention("d1", 1, 2, "EB")]),
        Document("d2", toks("xx", "Ghost", "yy"), [Mention("d2", 1, 2, "EZ")]),
    ]
    table = make_table(["xx", "yy", "alpha", "beta", "ghost",
                        "aaa", "bbb", "ccc", "ddd"], dim=6, seed=3)
    return kb, docs, table


def eval_model(toggles=None, seed=0):
    config = ModelConfig(d=6, k=4, ell=2, init_seed=seed,
                         toggles=toggles or FeatureToggles())
    return Model.initialize(config)


class TestEvaluate:
    def test_always_null_scores_zero(self):
        kb, docs, table = oracle_corpus()
        m = eval_model(toggles_from_name("sparse-only"))
        vocab = FeatureVocabulary()
        m.w_sparse[vocab.index_of("e:null")] = 100.0
        report = evaluate([("model", m)], docs,
                          model.TargetCache(kb, table, m.config))
        row = report.rows[0]
        assert row.accuracy == 0.0
        assert row.gold_recall == pytest.approx(2 / 3)

    def test_oracle_model_reaches_gold_recall(self):
        kb, docs, table = oracle_corpus()
        m = eval_model(toggles_from_name("sparse-only"))
        # exact title match plus link counts identify the gold everywhere
        vocab = FeatureVocabulary()
        m.w_sparse[vocab.index_of("e:title=exact")] = 50.0
        m.w_sparse[vocab.index_of("e:null")] = -50.0
        report = evaluate([("model", m)], docs,
                          model.TargetCache(kb, table, m.config))
        row = report.rows[0]
        assert row.gold_recall == pytest.approx(2 / 3)
        assert row.accuracy == row.gold_recall

    def test_oov_rate_counts_each_document_once(self):
        # d0 (in vocabulary, two mentions) and d1 (all OOV, one mention)
        # are the same length: half of the corpus tokens miss
        kb, _, table = oracle_corpus()
        docs = [Document("d0", toks("xx", "Alpha", "yy"),
                         [Mention("d0", 1, 2, "EA"),
                          Mention("d0", 0, 1, "EA")]),
                Document("d1", toks("qq", "Zeta", "rr"),
                         [Mention("d1", 1, 2, "EB")])]
        m = eval_model()
        row = evaluate([("model", m)], docs,
                       model.TargetCache(kb, table, m.config)).rows[0]
        assert row.oov_rate == 0.5

    def test_missing_gold_listed_not_fatal(self):
        kb, docs, table = oracle_corpus()
        m = eval_model()
        report = evaluate([("model", m)], docs,
                          model.TargetCache(kb, table, m.config))
        assert "EZ" in report.missing_entities

    def test_configs_share_one_preparation(self, monkeypatch):
        kb, docs, table = oracle_corpus()
        calls = []
        real = model.prepare_mention
        monkeypatch.setattr(model, "prepare_mention",
                            lambda *a: calls.append(a) or real(*a))
        report = evaluate([(name, eval_model(toggles))
                           for name, toggles in ABLATION_TOGGLES], docs,
                          model.TargetCache(kb, table, eval_model().config))
        assert len(report.rows) == len(ABLATION_TOGGLES)
        assert len(calls) == sum(len(d.mentions) for d in docs)

    def test_scored_model_must_share_preparation_settings(self):
        kb, docs, table = oracle_corpus()
        other = eval_model()
        other.config = replace(other.config, ell=3)
        targets = model.TargetCache(kb, table, eval_model().config)
        with pytest.raises(ValueError):
            evaluate([("m", eval_model()), ("x", other)], docs, targets)

    def test_report_jsonl_parses(self):
        kb, docs, table = oracle_corpus()
        report = evaluate(
            [("full", eval_model(FeatureToggles())),
             ("sparse-only", eval_model(toggles_from_name("sparse-only")))],
            docs, model.TargetCache(kb, table, eval_model().config))
        lines = report.to_jsonl().strip().split("\n")
        rows = [json.loads(line) for line in lines]
        names = [r.get("config_name") for r in rows if "config_name" in r]
        assert names == ["full", "sparse-only"]

    def test_row_invariant(self):
        with pytest.raises(ValueError):
            EvalRow("x", accuracy=0.9, gold_recall=0.5, n_mentions=10,
                    n_correct=9, n_gold_in_candidates=5,
                    mean_queries_per_mention=1.0, oov_rate=0.0)

    def test_ambiguity_one_sparse_only_hits_gold_recall(self, tmp_path):
        data = generate(tiny_spec(mention_ambiguity=1, misleading_fraction=0.0,
                                  n_entities=4, n_train_docs=24,
                                  n_test_docs=12), tmp_path / "amb1")
        kb = _load_kb(data)
        from convlink.embeddings import load_word2vec
        table = load_word2vec(data.paths["embeddings.txt"])
        train_docs = load_corpus(data.paths["train.jsonl"])
        test_docs = load_corpus(data.paths["test.jsonl"])
        config = ModelConfig(d=table.dim, k=4, ell=5, init_seed=0,
                             toggles=toggles_from_name("sparse-only"))
        m = Model.initialize(config)
        train(m, train_docs, kb, table, epochs=3, seed=0)
        report = evaluate([("model", m)], test_docs,
                          model.TargetCache(kb, table, m.config))
        row = report.rows[0]
        assert row.gold_recall == 1.0
        assert row.accuracy == row.gold_recall


class TestScorePredictions:
    def test_scoring(self):
        kb, docs, table = oracle_corpus()
        preds = [
            {"doc_id": "d0", "span": [1, 2], "entity": "EA", "prob": 0.9},
            {"doc_id": "d1", "span": [1, 2], "entity": "EA", "prob": 0.8},
        ]
        row = score_predictions(docs, preds)
        assert row.n_mentions == 3
        assert row.n_correct == 1
        assert row.accuracy == pytest.approx(1 / 3)


class TestInspectFilters:
    def test_zero_row_empty(self):
        kb, docs, table = oracle_corpus()
        m = eval_model()
        m.banks["src_document"][2] = 0.0
        assert inspect_filters(m, docs, table, "src_document", 2, 5) == []

    def test_top_n_overflow_returns_all_positive(self):
        kb, docs, table = oracle_corpus()
        m = eval_model()
        all_of_them = inspect_filters(m, docs, table, "src_document", 0, 10 ** 6)
        few = inspect_filters(m, docs, table, "src_document", 0, 2)
        assert all(act > 0 for _, act in all_of_them)
        assert few == all_of_them[:2]
        acts = [act for _, act in all_of_them]
        assert acts == sorted(acts, reverse=True)

    def test_row_out_of_range(self):
        kb, docs, table = oracle_corpus()
        m = eval_model()
        with pytest.raises(IndexError):
            inspect_filters(m, docs, table, "src_document", 99, 5)

    def test_dedup_by_lowercased_surface(self):
        kb, docs, table = oracle_corpus()
        docs = docs + [Document("d3", toks("XX", "ALPHA", "yy"),
                                [Mention("d3", 1, 2, "EA")])]
        m = eval_model(seed=1)
        results = inspect_filters(m, docs, table, "src_document", 0, 100)
        keys = [ng.lower() for ng, _ in results]
        assert len(keys) == len(set(keys))

    def test_topic_purity(self):
        vocabs = {"t0": {"a", "b"}, "t1": {"c"}}
        topic, purity = topic_purity(["a b a", "a c b"], vocabs)
        assert topic == "t0"
        assert purity == pytest.approx(5 / 6)
        assert topic_purity([], vocabs) == (None, 0.0)


class TestRunAblation:
    def test_two_configs_train_and_eval(self, tmp_path):
        data = generate(tiny_spec(), tmp_path / "abl")
        kb = _load_kb(data)
        from convlink.embeddings import load_word2vec
        table = load_word2vec(data.paths["embeddings.txt"])
        train_docs = load_corpus(data.paths["train.jsonl"])
        test_docs = load_corpus(data.paths["test.jsonl"])
        config = ModelConfig(d=table.dim, k=4, ell=5)
        report, trained = run_ablation(
            config, train_docs, test_docs, kb, table,
            configs=[("full", FeatureToggles()),
                     ("sparse-only", toggles_from_name("sparse-only"))],
            epochs=1, seed=0)
        assert [r.config_name for r in report.rows] == ["full", "sparse-only"]
        for row in report.rows:
            assert 0.0 <= row.accuracy <= row.gold_recall <= 1.0
        assert set(trained) == {"full", "sparse-only"}

    def test_shared_preparation_matches_separate_runs(self, tmp_path):
        # every config trains and scores on one shared preparation; its
        # models and rows must equal those of a separate run per config
        data = generate(tiny_spec(), tmp_path / "abl")
        kb = _load_kb(data)
        table = load_word2vec(data.paths["embeddings.txt"])
        train_docs = load_corpus(data.paths["train.jsonl"])
        test_docs = load_corpus(data.paths["test.jsonl"])
        config = ModelConfig(d=table.dim, k=4, ell=5, init_seed=2)
        report, trained = run_ablation(config, train_docs, test_docs, kb,
                                       table, ABLATION_TOGGLES, epochs=2,
                                       seed=3)
        assert [r.config_name for r in report.rows] == \
            [name for name, _ in ABLATION_TOGGLES]
        for (name, toggles), row in zip(ABLATION_TOGGLES, report.rows):
            alone = Model.initialize(config.with_toggles(toggles))
            train(alone, train_docs, kb, table, epochs=2, seed=3)
            a, b = tmp_path / "shared.bin", tmp_path / "alone.bin"
            save_model(trained[name], a)
            save_model(alone, b)
            assert a.read_bytes() == b.read_bytes(), name
            assert evaluate([(name, alone)], test_docs, model.TargetCache(
                kb, table, alone.config)).rows == [row]

    def test_both_splits_prepared_in_one_context(self, tmp_path,
                                                 monkeypatch):
        # the KB's tf-idf model is built once, and each candidate entity's
        # target views once, whichever split first meets it
        data = generate(tiny_spec(), tmp_path / "abl")
        kb = _load_kb(data)
        table = load_word2vec(data.paths["embeddings.txt"])
        train_docs = load_corpus(data.paths["train.jsonl"])
        test_docs = load_corpus(data.paths["test.jsonl"])
        config = ModelConfig(d=table.dim, k=4, ell=5)
        preps = model.prepare_corpus(model.TargetCache(kb, table, config),
                                     train_docs + test_docs)
        entities = {e for p in preps
                    for e in p.cand.candidates} - {NULL_ENTITY}
        from_kb, extracted = [], []
        real_from_kb = TfIdfModel.from_kb.__func__
        monkeypatch.setattr(TfIdfModel, "from_kb", classmethod(
            lambda cls, *a: from_kb.append(a) or real_from_kb(cls, *a)))
        real_extract = model.extract_target_views
        monkeypatch.setattr(model, "extract_target_views", lambda *a, **kw: (
            extracted.append(a[0]) or real_extract(*a, **kw)))
        run_ablation(config, train_docs, test_docs, kb, table,
                     [("full", FeatureToggles())], epochs=0)
        assert len(from_kb) == 1
        assert sorted(extracted) == sorted(kb.title(e) for e in entities)
