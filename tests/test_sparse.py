import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink import sparse
from convlink.config import HASH_CAPACITY
from convlink.kb import NULL_ENTITY, generate_queries
from convlink.sparse import (FeatureTable, FeatureVocabulary, TfIdfModel,
                             entity_feature_strings, features_e, features_q,
                             fnv1a64, query_feature_strings, tfidf_bucket,
                             tfidf_feature)
from helpers import toks


class TestHashing:
    def test_fnv1a64_reference_vectors(self):
        # published FNV-1a 64-bit test vectors
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    def test_hashed_mode_deterministic(self):
        v1 = FeatureVocabulary()
        v2 = FeatureVocabulary()
        for f in ["q:flag=is_original", "e:count_bucket=3", "e:null"]:
            assert v1.index_of(f) == v2.index_of(f)
            assert 0 <= v1.index_of(f) < HASH_CAPACITY

    def test_each_feature_hashed_once(self, monkeypatch):
        calls = []

        def counting_hash(text):
            calls.append(text)
            return fnv1a64(text)

        monkeypatch.setattr(sparse, "fnv1a64", counting_hash)
        vocab = FeatureVocabulary()
        for _ in range(3):
            for f in ["e:null", "q:first=floyd"]:
                assert vocab.index_of(f) == fnv1a64(f) % HASH_CAPACITY
        assert calls == ["e:null", "q:first=floyd"]

    def test_feature_table_merges_duplicates(self, monkeypatch):
        # force total collision: every feature hashes to one index
        monkeypatch.setattr(sparse, "fnv1a64", lambda text: HASH_CAPACITY + 5)
        v = FeatureVocabulary()
        table = FeatureTable.from_rows([[v.index_of(f) for f in "abc"]])
        assert table.keys == [5]
        assert table.val.tolist() == [3.0]


class TestFeatureTable:
    def test_layout(self):
        table = FeatureTable.from_rows([[9, 2, 9], [], [2, 5]])
        assert table.keys == [2, 5, 9]
        assert table.row.tolist() == [0, 0, 2, 2]
        assert [table.keys[s] for s in table.slot] == [2, 9, 2, 5]
        assert table.val.tolist() == [1.0, 2.0, 1.0, 1.0]

    @given(st.lists(st.lists(st.integers(0, 30), max_size=6), min_size=1,
                    max_size=8),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_gradient_is_adjoint_of_dots(self, rows, seed):
        # sum_r coef[r] * dots(w)[r] == sum_k w[k] * gradient(coef)[k]
        rng = np.random.default_rng(seed)
        table = FeatureTable.from_rows(rows)
        w = {k: float(rng.normal()) for k in table.keys}
        coef = rng.normal(size=len(rows))
        coef[rng.random(len(rows)) < 0.4] = 0.0
        grad = table.gradient(coef)
        lhs = float(coef @ table.dots(w))
        rhs = sum(w[k] * g for k, g in grad.items())
        assert abs(lhs - rhs) < 1e-12
        # only keys that an entry with a nonzero coefficient touches
        live = {k for r, row in enumerate(rows) if coef[r] != 0.0
                for k in row}
        assert set(grad) == live


class TestQueryFeatures:
    def test_original_query_features(self):
        mention = toks("Floyd")
        q = next(q for q in generate_queries(mention) if q.is_original)
        feats = query_feature_strings(mention, q)
        assert "q:flag=is_original" in feats
        assert any(f.startswith("q:flags=") and "mlen=1" in f for f in feats)
        assert "q:first=floyd" in feats
        assert "q:last=floyd" in feats

    def test_barack_obama_indicators(self):
        mention = toks("President", "Barack", "Obama")
        by_text = {q.text: q for q in generate_queries(mention)}
        feats = query_feature_strings(mention, by_text["barack obama"])
        assert "q:flag=dropped_leading" in feats
        assert "q:flag=is_capitalized_subsequence" in feats

    def test_deterministic(self):
        mention = toks("Pink", "Floyd")
        q = generate_queries(mention)[0]
        vocab = FeatureVocabulary()
        a = features_q(mention, q, vocab)
        b = features_q(mention, q, vocab)
        assert a == b

    def test_entity_independent(self):
        # f_Q has no entity argument at all; its strings mention no entity
        mention = toks("Pink", "Floyd")
        for q in generate_queries(mention):
            for f in query_feature_strings(mention, q):
                assert f.startswith("q:")

    def test_tag_signature_only_when_tagged(self):
        from convlink.textproc import Token
        mention = [Token("Pink", pos="NNP"), Token("Floyd", pos="NNP")]
        q = next(q for q in generate_queries(mention) if q.is_original)
        feats = query_feature_strings(mention, q)
        assert "q:pos=NNP-NNP" in feats
        assert not any(f.startswith("q:ner=") for f in feats)

    @pytest.mark.parametrize("mention, text, pos, ner", [
        # a plural clip of a surface ending in "ss" keeps its tags
        ([("the", "DT", "O"), ("Congress", "NNP", "ORG")],
         "the congres", "DT-NNP", "O-ORG"),
        ([("the", "DT", "O"), ("Congress", "NNP", "ORG")],
         "congres", "NNP", "ORG"),
        # a repeated word keeps the tags of its own position
        ([("New", "NNP", "B-LOC"), ("York", "NNP", "I-LOC"),
          ("new", "JJ", "O"), ("Times", "NNP", "B-ORG")],
         "new york new", "NNP-NNP-JJ", "B-LOC-I-LOC-O"),
    ], ids=["clipped-plural", "clipped-plural-alone", "repeated-word"])
    def test_tag_signature_reads_the_derived_tokens(self, mention, text, pos,
                                                    ner):
        from convlink.textproc import Token
        mention = [Token(*t) for t in mention]
        q = next(q for q in generate_queries(mention) if q.text == text)
        feats = query_feature_strings(mention, q)
        assert [f for f in feats if f.startswith(("q:pos=", "q:ner="))] == [
            "q:pos=%s" % pos, "q:ner=%s" % ner]

    def test_length_buckets(self):
        for n, bucket in [(1, "1"), (2, "2"), (3, "3"), (4, "4+"), (7, "4+")]:
            mention = toks(*["Word%d" % i for i in range(n)])
            q = next(q for q in generate_queries(mention) if q.is_original)
            feats = query_feature_strings(mention, q)
            assert any("mlen=%s" % bucket in f for f in feats)


def bag_cosine(tfidf, a_tokens, b_tokens):
    return tfidf.cosine(tfidf.bag(a_tokens), tfidf.bag(b_tokens))


@pytest.fixture
def tfidf3():
    # hand-worked fixture: 3 documents
    #   D1 = apple banana ; D2 = apple cherry ; D3 = durian
    # df(apple)=2 -> idf = ln(3/3) = 0 (apple carries no weight)
    # df(banana)=df(cherry)=df(durian)=1 -> idf = ln(3/2)
    return TfIdfModel.from_documents(
        [["apple", "banana"], ["apple", "cherry"], ["durian"]])


class TestTfIdf:
    def test_identical_inputs(self, tfidf3):
        got = bag_cosine(tfidf3, ["banana", "durian"], ["banana", "durian"])
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_inputs(self, tfidf3):
        assert bag_cosine(tfidf3, ["banana"], ["cherry"]) == 0.0

    def test_empty_inputs(self, tfidf3):
        assert bag_cosine(tfidf3, [], ["banana"]) == 0.0
        assert bag_cosine(tfidf3, [], []) == 0.0

    def test_hand_computed_values(self, tfidf3):
        # overlap only through zero-weight "apple": cosine is 0
        assert bag_cosine(tfidf3, ["apple", "banana"],
                          ["apple", "cherry"]) == 0.0
        # a = {banana: 2w, durian: w}, b = {banana: w}
        # cos = 2w^2 / (w sqrt(5) * w) = 2/sqrt(5)
        got = bag_cosine(tfidf3, ["banana", "banana", "durian"], ["banana"])
        assert got == pytest.approx(0.8944271909999159, abs=1e-12)
        # idf spot checks
        assert tfidf3.idf("apple") == 0.0
        assert tfidf3.idf("banana") == pytest.approx(math.log(1.5))
        assert tfidf3.idf("unseen") == pytest.approx(math.log(3.0))

    @given(st.lists(st.sampled_from(["apple", "banana", "cherry", "durian"]),
                    max_size=8),
           st.lists(st.sampled_from(["apple", "banana", "cherry", "durian"]),
                    max_size=8))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_range(self, a, b):
        tfidf = TfIdfModel.from_documents(
            [["apple", "banana"], ["apple", "cherry"], ["durian"]])
        assert 0.0 <= bag_cosine(tfidf, a, b) <= 1.0

    @given(st.lists(st.sampled_from(["Apple", "banana", "cherry", "durian"]),
                    max_size=8),
           st.lists(st.sampled_from(["apple", "Banana", "cherry", "durian"]),
                    max_size=8))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_bags_match_cosine_of_token_lists(self, a, b):
        # the cosine computed from the token lists in one pass must equal
        # the cosine of precomputed bags bit for bit
        tfidf = TfIdfModel.from_documents(
            [["apple", "banana"], ["apple", "cherry"], ["durian"]])

        def weights(tokens):
            tf = Counter(t.lower() for t in tokens)
            return {t: c * tfidf.idf(t) for t, c in tf.items()
                    if c * tfidf.idf(t) > 0.0}

        wa, wb = weights(a), weights(b)
        want = 0.0
        dot = sum(w * wb[t] for t, w in wa.items() if t in wb)
        if wa and wb and dot != 0.0:
            na = math.sqrt(sum(w * w for w in wa.values()))
            nb = math.sqrt(sum(w * w for w in wb.values()))
            want = min(1.0, max(0.0, dot / (na * nb)))
        assert bag_cosine(tfidf, a, b) == want


class TestEntityFeatures:
    def test_null_single_feature(self, small_kb):
        q = generate_queries(toks("Pink", "Floyd"))[0]
        feats = entity_feature_strings(small_kb, q, NULL_ENTITY)
        assert feats == ["e:null"]
        vocab = FeatureVocabulary()
        sv = features_e(small_kb, q, NULL_ENTITY, vocab)
        assert len(sv) == 1

    def test_exact_title_match(self, small_kb):
        by_text = {q.text: q for q in generate_queries(toks("Pink", "Floyd"))}
        feats = entity_feature_strings(small_kb, by_text["pink floyd"],
                                       "Pink_Floyd")
        assert "e:title=exact" in feats

    def test_prefix_and_substring_title_match(self, small_kb):
        by_text = {q.text: q for q in generate_queries(toks("Pink", "Floyd"))}
        feats = entity_feature_strings(small_kb, by_text["pink"],
                                       "Pink_Floyd")
        assert "e:title=prefix" in feats
        feats = entity_feature_strings(small_kb, by_text["floyd"],
                                       "Pink_Floyd")
        assert "e:title=substring" in feats

    def test_count_and_rank_buckets(self, small_kb):
        by_text = {q.text: q for q in generate_queries(toks("Floyd"))}
        q = by_text["floyd"]
        # anchor "floyd": Gavin_Floyd count 5 (rank 1), Pink_Floyd count 3 (rank 2)
        feats = entity_feature_strings(small_kb, q, "Gavin_Floyd")
        assert "e:count_bucket=3" in feats     # 5 in [4, 8)
        assert "e:rank=1" in feats
        feats = entity_feature_strings(small_kb, q, "Pink_Floyd")
        assert "e:count_bucket=2" in feats     # 3 in [2, 4)
        assert "e:rank=2" in feats

    def test_unseen_pair_gets_zero_bucket(self, small_kb):
        q = generate_queries(toks("Zanzibar"))[0]
        feats = entity_feature_strings(small_kb, q, "Obama")
        assert "e:count_bucket=0" in feats
        assert not any(f.startswith("e:rank=") for f in feats)

    def test_tfidf_bucket_arithmetic(self):
        assert tfidf_bucket(0.73) == 14        # [0.70, 0.75)
        assert tfidf_bucket(0.0) == 0
        assert tfidf_bucket(1.0) == 19         # top bucket is closed
        assert tfidf_bucket(0.049999) == 0
        assert tfidf_bucket(0.05) == 1

    def test_exactly_one_tfidf_bucket(self, small_kb):
        tfidf = TfIdfModel.from_kb(small_kb)
        q = generate_queries(toks("Pink", "Floyd"))[0]
        for entity in ["Pink_Floyd", "Gavin_Floyd", "Obama"]:
            doc = ["english", "rock", "band", "zz"]
            body = small_kb.body(entity).split()
            cos = bag_cosine(tfidf, doc, body)
            # the bucket is the one f_E feature that reads the document
            feats = entity_feature_strings(small_kb, q, entity)
            feats.append(tfidf_feature(cos))
            buckets = [f for f in feats if f.startswith("e:tfidf_bucket=")]
            assert buckets == ["e:tfidf_bucket=%d" % tfidf_bucket(cos)]
