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

from .errors import FormatError, InvalidEntityError, SpanError

_PUNCT = set(string.punctuation)

# Tokens that strictly alternate single letters and periods ("U.N.",
# "u.s.a") are kept whole; edge punctuation is never stripped from them.
_ACRONYM = re.compile(r"^(?:[^\W\d_]\.)+[^\W\d_]?$", re.UNICODE)


@dataclass(frozen=True)
class Token:
    surface: str
    pos: Optional[str] = None
    ner: Optional[str] = None

    def __post_init__(self):
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if self.pos == "" or self.ner == "":
            raise ValueError("tags, when present, must be non-empty")

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


def tokenize(text: str) -> list:
    """Whitespace split, then separate edge punctuation into own tokens."""
    out = []
    for chunk in text.split():
        out.extend(Token(p) for p in _split_chunk(chunk))
    return out


def extract_views(doc_tokens, mention: Mention, *, context_window: int = 10,
                  doc_cap: int = 2000) -> GranularityViews:
    """Slice the three source granularities for one mention.

    The document view is truncated to ``doc_cap`` tokens; when the
    mention would fall outside the truncated prefix the window is
    re-centered on the mention so the span always survives truncation.
    """
    n = len(doc_tokens)
    if not (0 <= mention.start < mention.end <= n):
        raise SpanError("span [%d, %d) invalid for document of %d tokens"
                        % (mention.start, mention.end, n))
    mention_tokens = list(doc_tokens[mention.start:mention.end])
    lo = max(0, mention.start - context_window)
    hi = min(n, mention.end + context_window)
    context_tokens = list(doc_tokens[lo:hi])
    if n <= doc_cap:
        document_tokens = list(doc_tokens)
    else:
        center = (mention.start + mention.end) // 2
        dlo = max(0, min(center - doc_cap // 2, n - doc_cap))
        if mention.start < dlo:
            dlo = mention.start
        elif mention.end > dlo + doc_cap:
            dlo = min(mention.end - doc_cap, n - doc_cap)
        dlo = max(0, dlo)
        document_tokens = list(doc_tokens[dlo:dlo + doc_cap])
    return GranularityViews(mention_tokens, context_tokens, document_tokens)


def extract_target_views(title: str, body: str, *, doc_cap: int = 2000):
    """Tokenize an entity's title (underscores read as spaces) and body."""
    if not title or not title.strip():
        raise InvalidEntityError("entity title must be non-empty")
    title_tokens = tokenize(title.replace("_", " "))
    body_tokens = tokenize(body)[:doc_cap]
    return title_tokens, body_tokens


# ---------------------------------------------------------------------------
# Corpus file format: UTF-8 line-delimited JSON.  Each record is
#   {"doc_id": str,
#    "tokens": [str | {"surface": str, "pos": str?, "ner": str?}, ...],
#    "mentions": [{"start": int, "end": int, "gold_entity": str?}, ...]}
# with 0 <= start < end <= len(tokens).
# ---------------------------------------------------------------------------

def read_jsonl(path):
    """Yield ``("<path>:<line>", record)`` for each non-blank line of a
    JSON-lines file; a line that is not a JSON object is a format error."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = "%s:%d" % (path, lineno)
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError("%s: invalid JSON: %s" % (where, exc))
            if not isinstance(rec, dict):
                raise FormatError("%s: a record must be a JSON object" % where)
            yield where, rec


def string_field(rec: dict, key: str, where: str) -> str:
    """``rec[key]``, which must be present and a string."""
    if key not in rec:
        raise FormatError("%s: missing field %r" % (where, key))
    value = rec[key]
    if not isinstance(value, str):
        raise FormatError("%s: field %r must be a string, got %s"
                          % (where, key, json.dumps(value)))
    return value


def _token_from_json(obj, where):
    try:
        if isinstance(obj, str):
            return Token(obj)
        if isinstance(obj, dict) and isinstance(obj.get("surface"), str):
            return Token(obj["surface"], obj.get("pos"), obj.get("ner"))
    except ValueError as exc:
        raise FormatError("%s: bad token: %s" % (where, exc))
    raise FormatError("%s: a token must be a string or an object with a "
                      "string surface" % where)


def _mention_from_json(obj, doc_id, n_tokens, where):
    if not isinstance(obj, dict):
        raise FormatError("%s: a mention must be an object" % where)
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
    docs = []
    for where, rec in read_jsonl(path):
        doc_id = string_field(rec, "doc_id", where)
        raw_tokens = rec.get("tokens")
        raw_mentions = rec.get("mentions", [])
        if not isinstance(raw_tokens, list) or not isinstance(raw_mentions,
                                                              list):
            raise FormatError("%s: tokens and mentions must be lists" % where)
        tokens = [_token_from_json(t, where) for t in raw_tokens]
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
