import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink import textproc
from convlink.config import CONTEXT_WINDOW, DOC_CAP
from convlink.errors import FormatError, InvalidEntityError, SpanError
from convlink.textproc import (Document, Mention, Token, _split_chunk,
                               extract_target_views, extract_views,
                               load_corpus, read_jsonl, save_corpus, tokenize)
from helpers import toks


def surfaces(tokens):
    return [t.surface for t in tokens]


class TestTokenize:
    def test_edge_punctuation_split(self):
        assert surfaces(tokenize("Pink Floyd, yes.")) == \
            ["Pink", "Floyd", ",", "yes", "."]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_acronyms_kept_whole(self):
        assert surfaces(tokenize("U.N. weapons")) == ["U.N.", "weapons"]
        assert surfaces(tokenize("the U.S.A. won")) == \
            ["the", "U.S.A.", "won"]

    def test_interior_punctuation_preserved(self):
        assert surfaces(tokenize("state-of-the-art")) == ["state-of-the-art"]

    def test_quoted(self):
        assert surfaces(tokenize('"hello"')) == ['"', "hello", '"']

    def test_casing_preserved(self):
        assert surfaces(tokenize("Led Zeppelin")) == ["Led", "Zeppelin"]

    def test_capitalization_flag(self):
        t = tokenize("Pink floyd")
        assert t[0].is_capitalized and not t[1].is_capitalized

    @given(st.text(max_size=80))
    @settings(max_examples=200, derandomize=True, database=None)
    def test_deterministic_and_nonempty_surfaces(self, text):
        a = tokenize(text)
        b = tokenize(text)
        assert surfaces(a) == surfaces(b)
        assert all(t.surface for t in a)


# Whitespace chunks with edge punctuation, acronyms, underscores and
# interior punctuation; a drawn text repeats them
CHUNKS = ["Pink", "Floyd,", "(band)", '"hello"', "U.N.", "u.s.a", "U.S.A.,",
          "e.g.", "state-of-the-art", "Gavin_Floyd", "_x_", "__", "...",
          "!?", "It's", "'90s", "a.b.c.", "x", "--y--", "Zürich.", "(U.K.)"]
CHUNK = st.one_of(st.sampled_from(CHUNKS),
                  st.text(alphabet="ab_.,'(-)U", min_size=1, max_size=6))


class TestTokenizeMemo:
    @given(st.lists(st.lists(CHUNK, max_size=12), min_size=1, max_size=4),
           st.sampled_from([" ", "\n", " \t "]))
    @settings(max_examples=150, derandomize=True)
    def test_shared_memo_equals_no_memo(self, texts, sep):
        memo = {}
        for chunks in texts:
            text = sep.join(chunks)
            expected = [Token(p) for c in text.split()
                        for p in _split_chunk(c)]
            assert tokenize(text) == expected
            assert tokenize(text, memo) == expected
        assert set(memo) == {c for chunks in texts
                             for c in sep.join(chunks).split()}

    def test_target_views_through_a_memo(self, monkeypatch):
        monkeypatch.setattr(textproc, "DOC_CAP", 3)
        memo = {}
        plain = extract_target_views("Pink_Floyd", "Pink Floyd, (band).")
        assert extract_target_views("Pink_Floyd", "Pink Floyd, (band).",
                                    memo=memo) == plain
        assert surfaces(plain[1]) == ["Pink", "Floyd", ","]
        assert set(memo) == {"Pink", "Floyd", "Floyd,", "(band)."}


class TestExtractViews:
    def test_window_arithmetic(self):
        doc = toks(*["w%d" % i for i in range(100)])
        views = extract_views(doc, Mention("d", 50, 52))
        assert CONTEXT_WINDOW == 10
        assert views.context_tokens == doc[40:62]
        assert views.mention_tokens == doc[50:52]
        assert views.document_tokens == doc

    def test_boundary_clip(self):
        doc = toks(*["w%d" % i for i in range(100)])
        views = extract_views(doc, Mention("d", 0, 2))
        assert views.context_tokens == doc[0:12]

    def test_truncation(self):
        doc = toks(*["w%d" % i for i in range(2 * DOC_CAP + 1000)])
        views = extract_views(doc, Mention("d", 10, 12))
        assert len(views.document_tokens) == DOC_CAP

    def test_recentering_keeps_mention(self):
        doc = toks(*["w%d" % i for i in range(2 * DOC_CAP + 1000)])
        views = extract_views(doc, Mention("d", 4000, 4002))
        assert len(views.document_tokens) == DOC_CAP
        assert doc[4000] in views.document_tokens
        assert doc[4001] in views.document_tokens

    def test_invalid_span(self):
        doc = toks("a", "b")
        for start, end in [(0, 0), (2, 3), (-1, 1), (1, 0)]:
            with pytest.raises(SpanError):
                extract_views(doc, Mention("d", start, end))

    @given(st.data())
    @settings(max_examples=100, derandomize=True, database=None)
    def test_nesting_and_survival(self, data):
        n = data.draw(st.integers(min_value=1, max_value=300))
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        end = data.draw(st.integers(min_value=start + 1, max_value=n))
        window = data.draw(st.integers(min_value=0, max_value=20))
        cap = data.draw(st.integers(min_value=max(end - start, 1),
                                    max_value=400))
        doc = toks(*["w%d" % i for i in range(n)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(textproc, "CONTEXT_WINDOW", window)
            mp.setattr(textproc, "DOC_CAP", cap)
            views = extract_views(doc, Mention("d", start, end))
        assert _is_contiguous_sublist(views.mention_tokens,
                                      views.context_tokens)
        assert _is_contiguous_sublist(views.mention_tokens,
                                      views.document_tokens)
        assert len(views.document_tokens) <= cap

    def test_pure(self):
        doc = toks(*["w%d" % i for i in range(30)])
        m = Mention("d", 5, 7)
        a = extract_views(doc, m)
        b = extract_views(doc, m)
        assert a == b


def _is_contiguous_sublist(small, big):
    if not small:
        return True
    n = len(small)
    return any(big[i:i + n] == small for i in range(len(big) - n + 1))


class TestTargetViews:
    def test_underscores_are_spaces(self):
        title, _ = extract_target_views("Gavin_Floyd", "")
        assert surfaces(title) == ["Gavin", "Floyd"]

    def test_body_truncated(self):
        body = " ".join("tok%d" % i for i in range(5 * DOC_CAP))
        _, body_tokens = extract_target_views("Pink_Floyd", body)
        assert len(body_tokens) == DOC_CAP

    def test_degenerate_body(self):
        title, body = extract_target_views("A", "")
        assert surfaces(title) == ["A"]
        assert body == []

    def test_empty_title_rejected(self):
        with pytest.raises(InvalidEntityError):
            extract_target_views("", "body text")
        with pytest.raises(InvalidEntityError):
            extract_target_views("   ", "body text")


class TestCorpusIO:
    def test_roundtrip(self, tmp_path):
        docs = [
            Document("d1", toks("Pink", "Floyd", "rocks"),
                     [Mention("d1", 0, 2, "Pink_Floyd")]),
            Document("d2", [Token("He", pos="PRP", ner="O")],
                     [Mention("d2", 0, 1, None)]),
        ]
        path = tmp_path / "corpus.jsonl"
        save_corpus(docs, path)
        loaded = load_corpus(path)
        assert loaded == docs

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d", "tokens": ["a"], "mentions": []}\n'
                        "not json\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert ":2" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": ["a"]}\n', encoding="utf-8")
        with pytest.raises(FormatError):
            load_corpus(path)

    def test_tokens_equal_per_token_construction_and_are_shared(self,
                                                                tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "d1", "tokens": ["Pink", "Floyd", "Pink", '
            '{"surface": "Floyd", "pos": "NNP"}], '
            '"mentions": [{"start": 0, "end": 2}]}\n'
            '{"doc_id": "d2", "tokens": [{"surface": "Floyd", "pos": "NNP"}, '
            '{"surface": "Floyd", "pos": "NNP", "ner": "ORG"}, "Pink", '
            '{"surface": "Pink"}]}\n', encoding="utf-8")
        a, b = load_corpus(path)
        assert [a, b] == [
            Document("d1", [Token("Pink"), Token("Floyd"), Token("Pink"),
                            Token("Floyd", "NNP")], [Mention("d1", 0, 2)]),
            Document("d2", [Token("Floyd", "NNP"),
                            Token("Floyd", "NNP", "ORG"), Token("Pink"),
                            Token("Pink")])]
        # one Token per distinct value, across records
        assert a.tokens[0] is a.tokens[2] is b.tokens[2]
        assert a.tokens[3] is b.tokens[0]
        assert len({id(t) for t in a.tokens + b.tokens}) == 5

    @pytest.mark.parametrize("bad,message", [
        ('{"surface": "x", "pos": 7}', "token pos must be a string or null, "
                                       "got 7"),
        ('{"surface": "x", "ner": ["ORG"]}', 'token ner must be a string or '
                                             'null, got ["ORG"]'),
        ('{"surface": "x", "pos": ""}', "bad token: tags, when present, "
                                        "must be non-empty"),
        ('""', "bad token: token surface must be non-empty"),
        # a no-break space and a tab: whitespace to str.split, as in text
        ('"\\u00a0\\t"', "bad token: token surface must not contain "
                         "whitespace"),
    ], ids=["pos-number", "ner-list", "pos-empty", "surface-empty",
            "surface-whitespace"])
    @pytest.mark.parametrize("bad_lines", [(2, 5), (5,)],
                             ids=["lines-2-and-5", "line-5"])
    def test_bad_token_reported_at_its_first_line(self, tmp_path, bad, message,
                                                   bad_lines):
        # the good lines hold "x" and a tagged "x", so a rejected value
        # that entered the interning memo would pass on a later line
        good = '"x", {"surface": "x", "pos": "NN"}'
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            '{"doc_id": "d%d", "tokens": [%s]}\n'
            % (n, bad if n in bad_lines else good) for n in range(1, 7)),
            encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert str(err.value) == "%s:%d: %s" % (path, bad_lines[0], message)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_bytes_not_utf8_name_their_line(self, tmp_path, newline):
        # far enough in that the decoder reads past earlier lines first;
        # lines are counted as they are read, on any newline
        path = tmp_path / "corpus.jsonl"
        good = b'{"doc_id": "d", "tokens": ["caf\xc3\xa9"]}' + newline
        path.write_bytes(good * 400 + b'{"doc_id": "\xff"}' + newline + good)
        with pytest.raises(FormatError) as err:
            load_corpus(path)
        assert str(err.value) == "%s:401: not valid UTF-8" % path
        with pytest.raises(FormatError):
            list(read_jsonl(path))
