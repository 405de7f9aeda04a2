"""End-to-end acceptance suite.

Each criterion prints one [PASS]/[FAIL] line (visible under ``pytest -s``)
and asserts its stated tolerance.  The synthetic-ablation fixtures are
shared across criteria 4-7, so this module trains the five ablation
systems exactly once.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from convlink.config import ModelConfig
from convlink.embeddings import load_word2vec
from convlink.evalharness import evaluate, most_topical_filter, run_ablation
from convlink.kb import KnowledgeBase, generate_queries
from convlink.model import (Model, TargetCache, infer, load_model,
                            prepare_corpus, prepare_mention, save_model, train)
from convlink.synthetic import SyntheticSpec, generate
from convlink.textproc import load_corpus
from helpers import (ABLATION_TOGGLES, brute_force_marginals, encode,
                     max_fd_relative_error, tiny_world, toks)

EPOCHS = 15
ABLATION_K = 48


def _report(num, name, ok, detail=""):
    print("\n[%s] criterion %d (%s) %s" % ("PASS" if ok else "FAIL",
                                           num, name, detail))


# ---------------------------------------------------------------------------
# Criteria 1-3: oracles on random micro-instances
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_exactness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        w = tiny_world(seed=1000 + seed, min_kink_gap=1e-3)
        worst = max(worst, max_fd_relative_error(w.model, w.prep, h=1e-5))
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 10.0
    _report(1, "gradient exactness", ok,
            "max_rel_err=%.2e elapsed=%.1fs" % (worst, elapsed))
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_2_inference_oracle():
    start = time.monotonic()
    worst = 0.0
    worst_sum = 0.0
    for seed in range(200):
        w = tiny_world(seed=3000 + seed)
        entities, pt_ref, pair_ref, _ = brute_force_marginals(w)
        scored = infer(w.model, w.prep)
        got = {s.entity: s.marginal_prob for s in scored}
        for e, p in zip(entities, pt_ref):
            worst = max(worst, abs(got[e] - p))
        worst_sum = max(worst_sum, abs(sum(got.values()) - 1.0))
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and worst_sum < 1e-9 and elapsed < 5.0
    _report(2, "inference oracle", ok,
            "max_abs_err=%.2e max_sum_err=%.2e elapsed=%.1fs"
            % (worst, worst_sum, elapsed))
    assert worst < 1e-12
    assert worst_sum < 1e-9
    assert elapsed < 5.0


def test_criterion_3_encoder_oracle():
    from test_cnn import reference_encode
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 6))
        ell = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        n = int(rng.integers(0, 12))     # n < ell cases included
        M = rng.normal(size=(k, ell * d))
        X = rng.normal(size=(n, d))
        got = encode(M, X, ell)
        want = reference_encode(M, X, ell)
        worst = max(worst, float(np.max(np.abs(got - want))) if k else 0.0)
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(3, "encoder oracle", ok,
            "max_abs_err=%.2e elapsed=%.1fs" % (worst, elapsed))
    assert worst < 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# Criteria 4-7: synthetic ablation at the pinned scale
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    spec = SyntheticSpec()          # 4 topics, 40 entities, ambiguity 2,
    data = generate(spec, out)      # misleading 0.5, 2000 train / 400 test
    with open(data.paths["articles.jsonl"], encoding="utf-8") as fh:
        articles = [json.loads(line) for line in fh]
    with open(data.paths["anchors.jsonl"], encoding="utf-8") as fh:
        anchors = [json.loads(line) for line in fh]
    kb = KnowledgeBase.ingest(articles, anchors)
    table = load_word2vec(data.paths["embeddings.txt"])
    return {
        "data": data,
        "kb": kb,
        "table": table,
        "train": load_corpus(data.paths["train.jsonl"]),
        "test": load_corpus(data.paths["test.jsonl"]),
        "config": ModelConfig(d=table.dim, k=ABLATION_K, ell=5, init_seed=0),
    }


@pytest.fixture(scope="module")
def ablation(synth):
    start = time.monotonic()
    report, trained = run_ablation(synth["config"], synth["train"],
                                   synth["test"], synth["kb"], synth["table"],
                                   ABLATION_TOGGLES, epochs=EPOCHS, seed=0)
    elapsed = time.monotonic() - start
    rows = {r.config_name: r for r in report.rows}
    return {"rows": rows, "trained": trained, "elapsed": elapsed}


def test_criterion_4_synthetic_ablation(ablation):
    rows = ablation["rows"]
    full = rows["full"].accuracy
    sparse = rows["sparse-only"].accuracy
    conv = rows["cnn-only"].accuracy
    elapsed = ablation["elapsed"]
    ok = (full >= 0.90 and sparse <= 0.65 and conv >= 0.80
          and full >= max(sparse, conv) + 0.05 and elapsed < 600.0)
    _report(4, "synthetic ablation", ok,
            "full=%.3f sparse-only=%.3f cnn-only=%.3f elapsed=%.0fs"
            % (full, sparse, conv, elapsed))
    assert full >= 0.90
    assert sparse <= 0.65
    assert conv >= 0.80
    assert full >= max(sparse, conv) + 0.05
    assert elapsed < 600.0


def test_criterion_5_granularity_ablation(ablation):
    rows = ablation["rows"]
    all_six = rows["cnn-only"].accuracy
    doc_doc = rows["pair:doc*doc"].accuracy
    ment_title = rows["pair:ment*title"].accuracy
    ok = (all_six >= doc_doc and all_six >= ment_title
          and (all_six >= doc_doc + 0.02 or all_six >= ment_title + 0.02))
    _report(5, "granularity ablation", ok,
            "all-six=%.3f doc*doc=%.3f ment*title=%.3f"
            % (all_six, doc_doc, ment_title))
    assert all_six >= doc_doc
    assert all_six >= ment_title
    assert all_six >= doc_doc + 0.02 or all_six >= ment_title + 0.02


def test_heavy_distractors_mislead_document_view(synth, ablation):
    # Criterion 5's premise: on heavy-distractor documents the off-topic
    # phrases outweigh the gold ones in the document view, while the
    # mention and context views stay clean, so all six cosines beat the
    # document pair there -- by criterion 5's 0.02 margin on their own.
    doc_kinds = {doc_id: rec["kind"] for doc_id, rec
                 in synth["data"].metadata["documents"].items()}
    names = ("cnn-only", "pair:doc*doc")
    rows = evaluate([(name, ablation["trained"][name]) for name in names],
                    [doc for doc in synth["test"]
                     if doc_kinds[doc.doc_id] == "heavy-distractor"],
                    TargetCache(synth["kb"], synth["table"],
                                synth["config"])).rows
    heavy = {row.config_name: (row.n_correct, row.n_mentions) for row in rows}
    all_six, doc_doc = heavy["cnn-only"][0], heavy["pair:doc*doc"][0]
    margin = 0.02 * ablation["rows"]["cnn-only"].n_mentions
    ok = all_six > doc_doc and all_six - doc_doc >= margin
    print("\n[%s] heavy-distractor documents: all-six=%d/%d doc*doc=%d/%d"
          % ("PASS" if ok else "FAIL", all_six, heavy["cnn-only"][1],
             doc_doc, heavy["pair:doc*doc"][1]))
    assert all_six > doc_doc
    assert all_six - doc_doc >= margin


def test_criterion_6_filter_interpretability(synth, ablation):
    start = time.monotonic()
    row, topic, purity, ngrams = most_topical_filter(
        ablation["trained"]["full"], synth["test"], synth["table"],
        synth["data"].metadata["topic_vocab"], granularity="src_document",
        top_n=10)
    elapsed = time.monotonic() - start
    ok = purity >= 0.80 and elapsed < 60.0
    _report(6, "filter interpretability", ok,
            "row=%s topic=%s purity=%.2f elapsed=%.1fs"
            % (row, topic, purity, elapsed))
    assert purity >= 0.80
    assert elapsed < 60.0


def test_criterion_7_determinism_and_roundtrip(synth, ablation, tmp_path):
    # (a) same seed, same corpus -> bit-identical trained weights
    short = 2
    m1 = Model.initialize(synth["config"])
    train(m1, synth["train"], synth["kb"], synth["table"], epochs=short,
          seed=123)
    m2 = Model.initialize(synth["config"])
    train(m2, synth["train"], synth["kb"], synth["table"], epochs=short,
          seed=123)
    p1, p2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    save_model(m1, p1)
    save_model(m2, p2)
    identical = filecmp.cmp(p1, p2, shallow=False)

    # (b) save/load -> bit-identical predictions on the full test set
    full_model = ablation["trained"]["full"]
    mpath = tmp_path / "full.bin"
    save_model(full_model, mpath)
    reloaded = load_model(mpath)
    targets_a = TargetCache(synth["kb"], synth["table"], full_model.config)
    targets_b = TargetCache(synth["kb"], synth["table"], reloaded.config)
    same_preds = True
    for doc in synth["test"]:
        for mention in doc.mentions:
            a = infer(full_model, prepare_mention(targets_a, doc, mention))
            b = infer(reloaded, prepare_mention(targets_b, doc, mention))
            if [(s.entity, s.marginal_prob) for s in a] != \
                    [(s.entity, s.marginal_prob) for s in b]:
                same_preds = False
    ok = identical and same_preds
    _report(7, "determinism and round-trip", ok,
            "weights_identical=%s predictions_identical=%s"
            % (identical, same_preds))
    assert identical
    assert same_preds


def test_criterion_8_query_generation(synth):
    texts_obama = {q.text for q in
                   generate_queries(toks("President", "Barack", "Obama"))}
    texts_floyd = {q.text for q in generate_queries(toks("Pink", "Floyd"))}
    ok_examples = ("barack obama" in texts_obama
                   and {"pink floyd", "floyd"} <= texts_floyd)

    prepared = prepare_corpus(
        TargetCache(synth["kb"], synth["table"], synth["config"]),
        synth["test"])
    mean_q = sum(len(p.queries) for p in prepared) / len(prepared)
    ok = ok_examples and 4.0 <= mean_q <= 15.0
    _report(8, "query generation", ok,
            "examples=%s mean_queries_per_mention=%.2f"
            % (ok_examples, mean_q))
    assert "barack obama" in texts_obama
    assert {"pink floyd", "floyd"} <= texts_floyd
    assert 4.0 <= mean_q <= 15.0
