"""Tokenization, mention views, and corpus file IO.

The linker consumes three source-side text granularities (the mention
itself, a window of surrounding context, and the whole document) and two
target-side granularities (entity title and article body).  Everything
here is pure: the same inputs always produce the same views.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass, field
from typing import Optional

from .config import CONTEXT_WINDOW, DOC_CAP
from .errors import FormatError, InvalidEntityError, SpanError

_PUNCT = set(string.punctuation)

# Tokens that strictly alternate single letters and periods ("U.N.",
# "u.s.a") are kept whole; edge punctuation is never stripped from them.
_ACRONYM = re.compile(r"^(?:[^\W\d_]\.)+[^\W\d_]?$", re.UNICODE)

# What errors="surrogateescape" decodes a byte that is not UTF-8 to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True)
class Token:
    surface: str
    pos: Optional[str] = None
    ner: Optional[str] = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.surface.split() != [self.surface]:
            raise ValueError("token surface must not contain whitespace")
        for tag in (self.pos, self.ner):
            if tag == "":
                raise ValueError("tags, when present, must be non-empty")
            if tag is not None and tag.isspace():
                raise ValueError("tags must not be all whitespace")

    @property
    def is_capitalized(self) -> bool:
        return self.surface[0].isupper()

    @property
    def is_punctuation(self) -> bool:
        return all(c in _PUNCT for c in self.surface)

    @property
    def has_alpha(self) -> bool:
        return any(c.isalpha() for c in self.surface)


@dataclass(frozen=True)
class Mention:
    doc_id: str
    start: int
    end: int
    gold_entity: Optional[str] = None


@dataclass
class Document:
    doc_id: str
    tokens: list
    mentions: list = field(default_factory=list)


@dataclass
class GranularityViews:
    mention_tokens: list
    context_tokens: list
    document_tokens: list


def _split_chunk(chunk: str):
    """Peel edge punctuation off one whitespace-delimited chunk.

    Each peeled character becomes its own token; interior punctuation
    (hyphens, periods inside acronyms) is preserved.
    """
    leading = []
    trailing = []
    while chunk and not _ACRONYM.match(chunk):
        if chunk[0] in _PUNCT:
            leading.append(chunk[0])
            chunk = chunk[1:]
        elif chunk[-1] in _PUNCT:
            trailing.append(chunk[-1])
            chunk = chunk[:-1]
        else:
            break
    pieces = leading
    if chunk:
        pieces.append(chunk)
    pieces.extend(reversed(trailing))
    return pieces


def tokenize(text: str, memo: Optional[dict] = None) -> list:
    """Whitespace split, then separate edge punctuation into own tokens.

    ``memo`` maps each whitespace chunk already seen to its tuple of
    tokens, so a caller that passes one memo across many texts splits
    each distinct chunk, and builds its tokens, once.  Without one, each
    distinct chunk of ``text`` is split once.
    """
    if memo is None:
        memo = {}
    out = []
    for chunk in text.split():
        toks = memo.get(chunk)
        if toks is None:
            toks = memo[chunk] = tuple(Token(p) for p in _split_chunk(chunk))
        out.extend(toks)
    return out


def extract_views(doc_tokens, mention: Mention) -> GranularityViews:
    """Slice the three source granularities for one mention: the
    mention, ``CONTEXT_WINDOW`` tokens on each side of it, and the
    document.

    The document view is truncated to ``DOC_CAP`` tokens; when the
    mention would fall outside the truncated prefix the window is
    re-centered on the mention so the span always survives truncation.
    """
    n = len(doc_tokens)
    if not (0 <= mention.start < mention.end <= n):
        raise SpanError("span [%d, %d) invalid for document of %d tokens"
                        % (mention.start, mention.end, n))
    mention_tokens = list(doc_tokens[mention.start:mention.end])
    lo = max(0, mention.start - CONTEXT_WINDOW)
    hi = min(n, mention.end + CONTEXT_WINDOW)
    context_tokens = list(doc_tokens[lo:hi])
    if n <= DOC_CAP:
        document_tokens = list(doc_tokens)
    else:
        center = (mention.start + mention.end) // 2
        dlo = max(0, min(center - DOC_CAP // 2, n - DOC_CAP))
        if mention.start < dlo:
            dlo = mention.start
        elif mention.end > dlo + DOC_CAP:
            dlo = min(mention.end - DOC_CAP, n - DOC_CAP)
        dlo = max(0, dlo)
        document_tokens = list(doc_tokens[dlo:dlo + DOC_CAP])
    return GranularityViews(mention_tokens, context_tokens, document_tokens)


def extract_target_views(title: str, body: str, *,
                         memo: Optional[dict] = None):
    """Tokenize an entity's title (underscores read as spaces) and the
    first ``DOC_CAP`` tokens of its body, both through ``memo`` (see
    ``tokenize``)."""
    if not title or not title.strip():
        raise InvalidEntityError("entity title must be non-empty")
    title_tokens = tokenize(title.replace("_", " "), memo)
    body_tokens = tokenize(body, memo)[:DOC_CAP]
    return title_tokens, body_tokens


# ---------------------------------------------------------------------------
# Corpus file format: UTF-8 line-delimited JSON.  Each record is
#   {"doc_id": str,
#    "tokens": [str | {"surface": str, "pos": str?, "ner": str?}, ...],
#    "mentions": [{"start": int, "end": int, "gold_entity": str?}, ...]}
# with 0 <= start < end <= len(tokens).  No other key is allowed.
# ---------------------------------------------------------------------------

_DOC_KEYS = frozenset({"doc_id", "tokens", "mentions"})
_MENTION_KEYS = frozenset({"start", "end", "gold_entity"})
_TOKEN_KEYS = frozenset({"surface", "pos", "ner"})


def text_lines(path):
    """Yield ``(line number, line)`` for each line of a UTF-8 text file,
    counted from 1.  Bytes that are not UTF-8 are a format error naming
    the first line that holds them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate(fh, start=1)
    except UnicodeDecodeError:
        # The decoder reads ahead by blocks, so read again with the bad
        # bytes escaped to lone surrogates, which UTF-8 text never holds.
        with open(path, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                if _ESCAPED_BYTE.search(line):
                    break
        raise FormatError("%s:%d: not valid UTF-8" % (path, lineno)) from None


def read_jsonl(path):
    """Yield ``("<path>:<line>", record)`` for each non-blank line of a
    JSON-lines file; a line that is not a JSON object is a format error,
    as is one nested too deeply or holding an integer too long to read."""
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        where = "%s:%d" % (path, lineno)
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise FormatError("%s: invalid JSON: %s" % (where, exc))
        if not isinstance(rec, dict):
            raise FormatError("%s: a record must be a JSON object" % where)
        yield where, rec


def _check_keys(obj: dict, allowed, what: str, where: str) -> None:
    unknown = obj.keys() - allowed
    if unknown:
        raise FormatError("%s: unknown %s key %s" % (
            where, what, ", ".join(map(json.dumps, sorted(unknown)))))


def string_field(rec: dict, key: str, where: str) -> str:
    """``rec[key]``, which must be present and a string."""
    if key not in rec:
        raise FormatError("%s: missing field %r" % (where, key))
    value = rec[key]
    if not isinstance(value, str):
        raise FormatError("%s: field %r must be a string, got %s"
                          % (where, key, json.dumps(value)))
    return value


def _token_from_json(obj, where, interned: dict):
    """The Token of one JSON token.  ``interned`` maps each token value
    already built, a string or a tagged token's (surface, pos, ner), to
    its Token, which equal tokens then share; only checked values enter
    it."""
    if isinstance(obj, str):
        key = obj
    elif isinstance(obj, dict) and isinstance(obj.get("surface"), str):
        _check_keys(obj, _TOKEN_KEYS, "token", where)
        key = (obj["surface"], obj.get("pos"), obj.get("ner"))
        for name, tag in zip(("pos", "ner"), key[1:]):
            if tag is not None and not isinstance(tag, str):
                raise FormatError("%s: token %s must be a string or null, "
                                  "got %s" % (where, name, json.dumps(tag)))
    else:
        raise FormatError("%s: a token must be a string or an object with a "
                          "string surface" % where)
    tok = interned.get(key)
    if tok is None:
        try:
            tok = Token(key) if isinstance(key, str) else Token(*key)
        except ValueError as exc:
            raise FormatError("%s: bad token: %s" % (where, exc))
        interned[key] = tok
    return tok


def _mention_from_json(obj, doc_id, n_tokens, where):
    if not isinstance(obj, dict):
        raise FormatError("%s: a mention must be an object" % where)
    _check_keys(obj, _MENTION_KEYS, "mention", where)
    start, end = obj.get("start"), obj.get("end")
    if type(start) is not int or type(end) is not int:
        raise FormatError("%s: mention start and end must be integers, "
                          "got %s and %s"
                          % (where, json.dumps(start), json.dumps(end)))
    if not 0 <= start < end <= n_tokens:
        raise FormatError("%s: span [%d, %d) invalid for document of %d "
                          "tokens" % (where, start, end, n_tokens))
    gold = obj.get("gold_entity")
    if gold is not None and not isinstance(gold, str):
        raise FormatError("%s: gold_entity must be a string or null, got %s"
                          % (where, json.dumps(gold)))
    return Mention(doc_id, start, end, gold)


def _token_to_json(tok: Token):
    if tok.pos is None and tok.ner is None:
        return tok.surface
    out = {"surface": tok.surface}
    if tok.pos is not None:
        out["pos"] = tok.pos
    if tok.ner is not None:
        out["ner"] = tok.ner
    return out


def load_corpus(path) -> list:
    """The documents of a corpus file.  Equal tokens within the file are
    one shared Token (it is frozen)."""
    docs = []
    interned = {}
    for where, rec in read_jsonl(path):
        _check_keys(rec, _DOC_KEYS, "document", where)
        doc_id = string_field(rec, "doc_id", where)
        raw_tokens = rec.get("tokens")
        raw_mentions = rec.get("mentions", [])
        if not isinstance(raw_tokens, list) or not isinstance(raw_mentions,
                                                              list):
            raise FormatError("%s: tokens and mentions must be lists" % where)
        tokens = [_token_from_json(t, where, interned) for t in raw_tokens]
        mentions = [_mention_from_json(m, doc_id, len(tokens), where)
                    for m in raw_mentions]
        docs.append(Document(doc_id, tokens, mentions))
    return docs


def save_corpus(docs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {
                "doc_id": doc.doc_id,
                "tokens": [_token_to_json(t) for t in doc.tokens],
                "mentions": [
                    {"start": m.start, "end": m.end, "gold_entity": m.gold_entity}
                    for m in doc.mentions
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
