"""Knowledge base: entity articles, anchor-text link counts, latent-query
generation, and candidate retrieval.

A mention rarely matches a linked anchor string verbatim, so each mention
is expanded into a set of latent queries by small deterministic edits
(dropping stop words, plural suffixes, punctuation, edge tokens).  Each
query proposes its highest-count anchor targets and the union, plus the
distinguished NULL entity, forms the candidate set.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

from .binfile import read_framed, write_framed
from .config import TOP_K
from .errors import IngestError, LoadError
from .textproc import Token

NULL_ENTITY = "<NULL>"

KB_MAGIC = b"CLKB1"
KB_VERSION = 1

# Fixed list of ~50 English function words used by the query edits.
STOPWORDS = frozenset("""
a an the and or but nor so of in on at by for with from to into over under
as is are was were be been being am do does did have has had it its this
that these those there here he she they we you i his her their our your my
who which what when where how not no if then than
""".split())

# Derivation flags.  The first five mark removals; a query is original
# exactly when it carries none of them.
F_STOPWORD = "removed_stopword"
F_PLURAL = "removed_plural_suffix"
F_PUNCT = "removed_punctuation"
F_LEADING = "dropped_leading"
F_TRAILING = "dropped_trailing"
F_CAPSEQ = "is_capitalized_subsequence"
F_ORIGINAL = "is_original"

REMOVAL_FLAGS = frozenset({F_STOPWORD, F_PLURAL, F_PUNCT, F_LEADING, F_TRAILING})

MAX_EDIT_DEPTH = 3


def normalize_anchor(text: str) -> str:
    """Lowercase and collapse inner whitespace."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class Query:
    text: str
    flags: frozenset
    tokens: tuple               # its first derivation's tokens, tags kept

    def __post_init__(self):
        if not self.text:
            raise ValueError("query text must be non-empty")
        removed = self.flags & REMOVAL_FLAGS
        if (F_ORIGINAL in self.flags) == bool(removed):
            raise ValueError("is_original must hold iff no removal flag is set")

    @property
    def is_original(self) -> bool:
        return F_ORIGINAL in self.flags


@dataclass
class CandidateSet:
    candidates: list                      # entity ids, NULL_ENTITY last

    def __post_init__(self):
        if NULL_ENTITY not in self.candidates:
            raise ValueError("NULL entity must be present")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be deduplicated")


class KnowledgeBase:
    """Immutable after ingest; readers may share it freely."""

    def __init__(self, entities, anchor_index, skipped_anchors=0):
        self.entities = entities            # id -> {"title": str, "body": str}
        self.anchor_index = anchor_index    # anchor -> {entity id -> count}
        self.skipped_anchors = skipped_anchors
        self._rank_cache = {}

    @classmethod
    def ingest(cls, articles, anchors) -> "KnowledgeBase":
        """Build indexes from article records {id,title,body} and anchor
        records {anchor_text,entity_id}.  Anchors naming unknown entities
        are skipped and counted; duplicate article ids, the reserved id
        NULL_ENTITY and blank titles are errors."""
        entities = {}
        for rec in articles:
            eid = rec["id"]
            if eid == NULL_ENTITY:
                raise IngestError("reserved entity id %r" % eid)
            if eid in entities:
                raise IngestError("duplicate entity id %r" % eid)
            if not rec["title"].strip():
                raise IngestError("title must be non-empty")
            entities[eid] = {"title": rec["title"], "body": rec["body"]}
        anchor_index = {}
        skipped = 0
        for rec in anchors:
            eid = rec["entity_id"]
            if eid not in entities:
                skipped += 1
                continue
            anchor = normalize_anchor(rec["anchor_text"])
            if not anchor:
                skipped += 1
                continue
            counts = anchor_index.setdefault(anchor, {})
            counts[eid] = counts.get(eid, 0) + 1
        return cls(entities, anchor_index, skipped)

    def ranked_entities(self, query_text: str):
        """Entities for an anchor, ordered by count desc then id asc."""
        anchor = normalize_anchor(query_text)
        cached = self._rank_cache.get(anchor)
        if cached is None:
            counts = self.anchor_index.get(anchor, {})
            cached = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            self._rank_cache[anchor] = cached
        return cached

    def title(self, entity: str) -> str:
        return self.entities[entity]["title"]

    def body(self, entity: str) -> str:
        return self.entities[entity]["body"]


# ---------------------------------------------------------------------------
# Query generation
# ---------------------------------------------------------------------------

def _is_stopword(tok: Token) -> bool:
    return tok.surface.lower() in STOPWORDS


def _edits(tokens):
    """Yield (flag, edited token tuple) for every applicable single edit."""
    n = len(tokens)
    if n > 1 and _is_stopword(tokens[0]):
        yield F_STOPWORD, tokens[1:]
    if n > 1 and _is_stopword(tokens[-1]):
        yield F_STOPWORD, tokens[:-1]
    last = tokens[-1].surface
    if len(last) > 3 and last.endswith("s"):
        clipped = Token(last[:-1], tokens[-1].pos, tokens[-1].ner)
        yield F_PLURAL, tokens[:-1] + (clipped,)
    if any(t.is_punctuation for t in tokens):
        kept = tuple(t for t in tokens if not t.is_punctuation)
        if kept:
            yield F_PUNCT, kept
    if n > 1:
        yield F_LEADING, tokens[1:]
        yield F_TRAILING, tokens[:-1]


def _query_text(tokens) -> str:
    return normalize_anchor(" ".join(t.surface for t in tokens))


def _all_capitalized(tokens) -> bool:
    alpha = [t for t in tokens if t.has_alpha]
    return bool(alpha) and all(t.is_capitalized for t in alpha)


def _capitalized_run(tokens):
    """Leftmost maximal run of capitalized tokens, or None."""
    best = None
    i = 0
    n = len(tokens)
    while i < n:
        if tokens[i].is_capitalized:
            j = i
            while j < n and tokens[j].is_capitalized:
                j += 1
            if best is None or (j - i) > (best[1] - best[0]):
                best = (i, j)
            i = j
        else:
            i += 1
    return best


def generate_queries(mention_tokens) -> list:
    """Deterministic closure of single-step edits over the mention.

    Each edit type applies at most once per derivation branch and at most
    three edits compose.  Queries with identical text merge, unioning
    their derivation flags and keeping the tokens of the first derivation
    (the original, then breadth-first), tags included.  The maximal
    capitalized run is always produced as a query when one exists.
    """
    if not mention_tokens:
        raise ValueError("mention must contain at least one token")
    orig = tuple(mention_tokens)
    merged = {}   # text -> (set of flags, tokens of its first derivation)

    def note(tokens, flags):
        entry = merged.setdefault(_query_text(tokens), (set(), tokens))
        entry[0].update(flags)
        if _all_capitalized(tokens):
            entry[0].add(F_CAPSEQ)

    note(orig, {F_ORIGINAL})
    frontier = [(orig, frozenset())]
    for _ in range(MAX_EDIT_DEPTH):
        nxt = []
        for tokens, applied in frontier:
            for flag_name, edited in _edits(tokens):
                if flag_name in applied:
                    continue
                applied2 = applied | {flag_name}
                note(edited, applied2)
                nxt.append((edited, applied2))
        frontier = nxt

    run = _capitalized_run(orig)
    if run is not None:
        i, j = run
        flags = set()
        if i > 0:
            flags.add(F_LEADING)
        if j < len(orig):
            flags.add(F_TRAILING)
        if not flags:
            flags = {F_ORIGINAL}
        note(orig[i:j], flags)

    return [Query(text, frozenset(flags), tokens)
            for text, (flags, tokens) in sorted(merged.items())]


def candidates_for(kb: KnowledgeBase, queries) -> CandidateSet:
    """Union of each query's ``TOP_K`` entities by anchor count, plus NULL."""
    ordered = []
    seen = set()
    for q in queries:
        for eid, _ in kb.ranked_entities(q.text)[:TOP_K]:
            if eid not in seen:
                ordered.append(eid)
                seen.add(eid)
    ordered.append(NULL_ENTITY)
    return CandidateSet(candidates=ordered)


# ---------------------------------------------------------------------------
# Persistence: single framed binary file, magic "CLKB1".
# ---------------------------------------------------------------------------

def save_kb(kb: KnowledgeBase, path) -> None:
    payload = zlib.compress(json.dumps({
        "entities": kb.entities,
        "anchor_index": kb.anchor_index,
        "skipped_anchors": kb.skipped_anchors,
    }, sort_keys=True).encode("utf-8"))
    write_framed(path, KB_MAGIC, KB_VERSION, payload)


def _check_payload(entities, anchor_index, skipped_anchors) -> None:
    """ValueError unless the fields are what ``ingest`` and ``save_kb``
    write: no entity id NULL_ENTITY, every title non-blank, and every
    anchor normalized, non-empty and linked to known entities with
    counts of at least 1."""
    if type(entities) is not dict or NULL_ENTITY in entities or any(
            type(rec) is not dict or set(rec) != {"title", "body"}
            or any(type(v) is not str for v in rec.values())
            or not rec["title"].strip() for rec in entities.values()):
        raise ValueError('entities must map each id but %s to {"title": '
                         'non-blank string, "body": string}' % NULL_ENTITY)
    if type(anchor_index) is not dict or any(
            not anchor or anchor != normalize_anchor(anchor)
            or type(counts) is not dict or not counts
            or not counts.keys() <= entities.keys()
            or any(type(n) is not int or n < 1 for n in counts.values())
            for anchor, counts in anchor_index.items()):
        raise ValueError("anchor_index must map each normalized, non-empty "
                         "anchor to a non-empty {entity id: count of at "
                         "least 1} over known entities")
    if type(skipped_anchors) is not int or skipped_anchors < 0:
        raise ValueError("skipped_anchors must be an integer of at least 0, "
                         "got %s" % json.dumps(skipped_anchors))


def load_kb(path) -> KnowledgeBase:
    _, payload = read_framed(path, KB_MAGIC, supported_versions=(KB_VERSION,))
    try:
        data = json.loads(zlib.decompress(payload).decode("utf-8"))
        fields = (data["entities"], data["anchor_index"],
                  data.get("skipped_anchors", 0))
        _check_payload(*fields)
        return KnowledgeBase(*fields)
    except (zlib.error, ValueError, KeyError, TypeError, AttributeError,
            RecursionError) as exc:
        raise LoadError("%s: malformed KB payload: %s" % (path, exc))
