import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink import kb as kb_mod
from convlink.binfile import write_framed
from convlink.errors import ChecksumError, IngestError, LoadError, VersionError
from convlink.kb import (KB_MAGIC, KB_VERSION, NULL_ENTITY, F_CAPSEQ,
                         F_LEADING, F_ORIGINAL, KnowledgeBase, _query_text,
                         candidates_for, generate_queries, load_kb,
                         normalize_anchor, save_kb)
from convlink.textproc import Token
from helpers import MALFORMED_KB_PAYLOADS, kb_payload, toks


def derived_from(query_tokens, mention):
    """Whether a query's tokens are mention tokens, tags included, in
    mention order, the last one perhaps with its plural "s" clipped."""
    rest = iter(mention)
    last = len(query_tokens) - 1
    return all(any(m == t or (i == last and m == Token(t.surface + "s",
                                                       t.pos, t.ner))
                   for m in rest)
               for i, t in enumerate(query_tokens))


class TestIngest:
    def test_anchor_counting(self):
        kb = KnowledgeBase.ingest(
            [{"id": "E1", "title": "T1", "body": ""},
             {"id": "E2", "title": "T2", "body": ""}],
            [{"anchor_text": "floyd", "entity_id": "E1"},
             {"anchor_text": "floyd", "entity_id": "E1"},
             {"anchor_text": "floyd", "entity_id": "E2"}])
        assert kb.anchor_index["floyd"] == {"E1": 2, "E2": 1}

    def test_duplicate_article_id(self):
        with pytest.raises(IngestError):
            KnowledgeBase.ingest(
                [{"id": "E1", "title": "a", "body": ""},
                 {"id": "E1", "title": "b", "body": ""}], [])

    def test_null_entity_id_is_reserved(self):
        with pytest.raises(IngestError, match="reserved entity id '<NULL>'"):
            KnowledgeBase.ingest([{"id": NULL_ENTITY, "title": "N",
                                   "body": ""}], [])

    @pytest.mark.parametrize("title", ["", " \t"])
    def test_blank_title(self, title):
        with pytest.raises(IngestError, match="title must be non-empty"):
            KnowledgeBase.ingest([{"id": "E1", "title": title, "body": ""}],
                                 [])

    def test_unknown_anchor_skipped_with_count(self):
        kb = KnowledgeBase.ingest(
            [{"id": "E1", "title": "T1", "body": ""}],
            [{"anchor_text": "x", "entity_id": "E9"},
             {"anchor_text": "x", "entity_id": "E1"}])
        assert kb.skipped_anchors == 1
        assert kb.anchor_index["x"] == {"E1": 1}

    def test_anchor_normalization(self):
        kb = KnowledgeBase.ingest(
            [{"id": "E1", "title": "T1", "body": ""}],
            [{"anchor_text": "  Pink   FLOYD ", "entity_id": "E1"}])
        assert kb.anchor_index == {"pink floyd": {"E1": 1}}


class TestGenerateQueries:
    def test_president_barack_obama(self):
        queries = generate_queries(toks("President", "Barack", "Obama"))
        texts = {q.text for q in queries}
        assert "barack obama" in texts
        by_text = {q.text: q for q in queries}
        q = by_text["barack obama"]
        assert F_LEADING in q.flags
        assert F_CAPSEQ in q.flags

    def test_pink_floyd(self):
        texts = {q.text for q in generate_queries(toks("Pink", "Floyd"))}
        assert "pink floyd" in texts
        assert "floyd" in texts

    def test_single_stopword_mention(self):
        queries = generate_queries(toks("The"))
        assert len(queries) == 1
        assert queries[0].text == "the"
        assert queries[0].is_original

    def test_plural_strip(self):
        texts = {q.text for q in generate_queries(toks("weapons"))}
        assert "weapon" in texts
        # 3-letter tokens are left alone
        texts = {q.text for q in generate_queries(toks("gas"))}
        assert texts == {"gas"}
        # nor could a stem of only whitespace be: no token holds any
        with pytest.raises(ValueError):
            toks("\t  s")

    def test_punctuation_drop(self):
        texts = {q.text for q in generate_queries(toks("Obama", ","))}
        assert "obama" in texts

    def test_original_flag_exclusive(self):
        for mention in [toks("President", "Barack", "Obama"),
                        toks("The", "U.N.", "weapons"), toks("a")]:
            for q in generate_queries(mention):
                assert (F_ORIGINAL in q.flags) == q.is_original

    def test_capitalized_run_always_included(self):
        queries = generate_queries(toks("the", "Pink", "Floyd", "album"))
        by_text = {q.text: q for q in queries}
        assert "pink floyd" in by_text
        assert F_CAPSEQ in by_text["pink floyd"].flags

    def test_empty_mention_rejected(self):
        with pytest.raises(ValueError):
            generate_queries([])

    # "Congress" ends in "ss"; "Floyd" and "pink" recur with other tags
    @given(st.lists(st.sampled_from(
        [("The", "DT", "O"), ("Pink", "NNP", "B-ORG"),
         ("Floyd", "NNP", "I-ORG"), ("Weapons", "NNS", "O"), ("of", "IN", "O"),
         (",", ",", "O"), ("U.N.", "NNP", "B-ORG"), ("clubs", "NNS", "O"),
         ("Congress", "NNP", "B-ORG"), ("Floyd", "NN", "O"),
         ("pink", "JJ", "O")]),
        min_size=1, max_size=5))
    @settings(max_examples=150, derandomize=True, database=None)
    def test_texts_unique_and_nonempty(self, tagged):
        mention = [Token(*t) for t in tagged]
        queries = generate_queries(mention)
        texts = [q.text for q in queries]
        assert len(texts) == len(set(texts))
        assert all(texts)
        assert any(q.is_original for q in queries)
        for q in queries:
            assert _query_text(q.tokens) == q.text
            assert derived_from(q.tokens, mention), q


class TestCandidates:
    def test_figure_example(self, small_kb):
        queries = generate_queries(toks("Pink", "Floyd"))
        cand = candidates_for(small_kb, queries)
        assert "Pink_Floyd" in cand.candidates
        assert "Gavin_Floyd" in cand.candidates
        assert NULL_ENTITY in cand.candidates

    def test_no_match_gives_null_only(self, small_kb):
        queries = generate_queries(toks("Zanzibar"))
        cand = candidates_for(small_kb, queries)
        assert cand.candidates == [NULL_ENTITY]

    def test_top_k_bound(self, small_kb, monkeypatch):
        monkeypatch.setattr(kb_mod, "TOP_K", 1)
        queries = generate_queries(toks("Floyd"))
        cand = candidates_for(small_kb, queries)
        assert len(cand.candidates) <= 2
        # "floyd" anchor: Gavin_Floyd count 5 beats Pink_Floyd count 3
        assert cand.candidates[0] == "Gavin_Floyd"

    def test_degenerate_kb(self):
        kb = KnowledgeBase.ingest([{"id": "E1", "title": "T", "body": ""}], [])
        cand = candidates_for(kb, generate_queries(toks("anything")))
        assert cand.candidates == [NULL_ENTITY]

    @given(st.data())
    @settings(max_examples=60, derandomize=True, database=None)
    def test_monotone_and_union(self, data):
        # random tiny KB
        entities = ["E%d" % i for i in range(4)]
        anchor_words = ["aa", "bb", "cc"]
        pairs = data.draw(st.lists(
            st.tuples(st.sampled_from(anchor_words),
                      st.sampled_from(entities)), max_size=12))
        kb = KnowledgeBase.ingest(
            [{"id": e, "title": e, "body": ""} for e in entities],
            [{"anchor_text": a, "entity_id": e} for a, e in pairs])
        qs = [generate_queries(toks(w))[0] for w in anchor_words]
        q1 = data.draw(st.lists(st.sampled_from(qs), max_size=3))
        q2 = data.draw(st.lists(st.sampled_from(qs), max_size=3))
        c1 = set(candidates_for(kb, q1).candidates)
        c12 = set(candidates_for(kb, list(q1) + list(q2)).candidates)
        c2 = set(candidates_for(kb, q2).candidates)
        assert c1 <= c12                      # adding queries never removes
        assert c12 == c1 | c2                 # union property


class TestPersistence:
    def test_roundtrip(self, small_kb, tmp_path):
        path = tmp_path / "kb.bin"
        save_kb(small_kb, path)
        loaded = load_kb(path)
        assert loaded.entities == small_kb.entities
        assert loaded.anchor_index == small_kb.anchor_index

    def test_magic_check(self, small_kb, tmp_path):
        path = tmp_path / "kb.bin"
        path.write_bytes(b"NOTKB" + b"\x00" * 20)
        with pytest.raises(LoadError):
            load_kb(path)

    def test_future_version(self, small_kb, tmp_path):
        path = tmp_path / "kb.bin"
        save_kb(small_kb, path)
        data = bytearray(path.read_bytes())
        data[5] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_kb(path)

    def test_truncation_is_checksum_error(self, small_kb, tmp_path):
        path = tmp_path / "kb.bin"
        save_kb(small_kb, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 8])
        with pytest.raises(ChecksumError):
            load_kb(path)

    def test_corruption_detected(self, small_kb, tmp_path):
        path = tmp_path / "kb.bin"
        save_kb(small_kb, path)
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumError):
            load_kb(path)

    def test_unedited_test_payload_loads(self, tmp_path):
        # most malformed payloads are one edit away from this one
        path = tmp_path / "kb.bin"
        write_framed(path, KB_MAGIC, KB_VERSION, kb_payload())
        kb = load_kb(path)
        assert kb.title("E1") == "One" and kb.body("E1") == "one two"
        assert kb.ranked_entities("one") == [("E1", 1)]
        assert kb.skipped_anchors == 0

    @pytest.mark.parametrize("kind", sorted(MALFORMED_KB_PAYLOADS))
    def test_malformed_payload_names_file(self, tmp_path, kind):
        path = tmp_path / "kb.bin"
        write_framed(path, KB_MAGIC, KB_VERSION, MALFORMED_KB_PAYLOADS[kind])
        with pytest.raises(LoadError) as err:
            load_kb(path)
        assert str(err.value).startswith("%s: malformed KB payload: " % path)


def test_normalize_anchor():
    assert normalize_anchor("  Pink   FLOYD ") == "pink floyd"
    assert normalize_anchor("x") == "x"
