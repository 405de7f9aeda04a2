"""Deterministic synthetic corpus and knowledge-base generator.

The generated world separates the two signals the linker combines:

* Anchor-count priors: entities sharing ambiguous surface forms have
  skewed link counts, and for a controlled fraction of mentions the
  most-linked candidate is the wrong answer, so a prior-only system
  cannot exceed the faithful fraction.  Surface strings never appear in
  the embedding vocabulary, so the prior is invisible to the encoders.
* Topic content: each entity belongs to a topic with its own vocabulary.
  Entity bodies draw from one half of that vocabulary and source
  documents from the other half, so documents and bodies never share
  tokens and bag-of-words overlap (tf-idf) carries no signal.  Topic
  membership is only visible through word embeddings, which cluster by
  topic, and through recurring five-token topic phrases placed next to
  the mention -- exactly what the convolutional encoders can exploit.
  The mention is written ``the <surface> clubs``; the two markers have
  no vectors either, since they flank gold phrases and nothing else, and
  a document filter could otherwise read the mention's local context
  ("topic word next to a marker") through the document view.

A controlled fraction of documents is "muddy" (all filler, no topic
phrases); those mentions are resolvable only through the link-count
prior, which is always faithful there.  Stacking both signals therefore
beats either alone by construction.  The remaining ("clear") documents
also carry a block of distractor phrases from a wrong candidate's topic,
away from the mention: one phrase in light-distractor documents, three
in heavy-distractor ones, where they outnumber the two gold phrases and
mislead the whole-document view.  The block sits inside the first filler
run, never at the document start: with valid windows an edge token is in
fewer windows than an inner one, so a block at the start would weigh
less than the gold phrases in the document's topic vector.  A document
encoder can still count contiguous topical runs (the three distractor
phrases form one run, the gold phrases two), so heavy documents lower
document-only accuracy without reducing it to chance.

``metadata.json`` records each document's kind (``muddy``,
``light-distractor`` or ``heavy-distractor``) and whether its
link-count prior is misleading.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import SpecError
from .textproc import Document, Mention, Token, save_corpus

MENTION_PREFIX = "the"
MENTION_SUFFIX = "clubs"
PHRASE_LEN = 5           # tokens per topic phrase
HEAVY_PERIOD = 3         # every third clear document per (group, kind)
EMBEDDING_NOISE = 0.25   # spread of topic-word vectors around their topic


@dataclass(frozen=True)
class SyntheticSpec:
    n_topics: int = 4
    vocab_per_topic: int = 60
    n_entities: int = 40
    mention_ambiguity: int = 2
    n_train_docs: int = 2000
    n_test_docs: int = 400
    misleading_fraction: float = 0.5
    muddy_fraction: float = 0.2
    anchor_skew: float = 4.0
    seed: int = 0
    embedding_dim: int = 16
    phrases_per_topic: int = 10
    body_tokens: int = 60
    filler_vocab_size: int = 80
    filler_min: int = 35
    filler_max: int = 50

    def validate(self) -> None:
        positive = ("n_topics", "vocab_per_topic", "n_entities",
                    "mention_ambiguity", "n_train_docs", "n_test_docs",
                    "embedding_dim", "phrases_per_topic", "body_tokens",
                    "filler_vocab_size", "filler_min", "filler_max")
        for name in positive:
            if getattr(self, name) < 1:
                raise SpecError("%s must be positive" % name)
        if self.mention_ambiguity > self.n_entities:
            raise SpecError("ambiguity %d exceeds entity count %d"
                            % (self.mention_ambiguity, self.n_entities))
        if self.mention_ambiguity > self.n_topics:
            raise SpecError("ambiguity %d exceeds topic count %d; group "
                            "members could not be told apart by topic"
                            % (self.mention_ambiguity, self.n_topics))
        if self.n_entities % self.mention_ambiguity != 0:
            raise SpecError("n_entities must be divisible by ambiguity")
        if not (0.0 <= self.misleading_fraction <= 1.0):
            raise SpecError("misleading_fraction must be in [0, 1]")
        if not (0.0 <= self.muddy_fraction <= 1.0):
            raise SpecError("muddy_fraction must be in [0, 1]")
        if self.misleading_fraction > 1.0 - self.muddy_fraction + 1e-9:
            raise SpecError("misleading_fraction cannot exceed the clear-"
                            "document fraction %.2f" % (1.0 - self.muddy_fraction))
        if self.mention_ambiguity == 1 and self.misleading_fraction > 0:
            raise SpecError("misleading mentions are impossible without "
                            "ambiguity")
        if self.anchor_skew < 1.0:
            raise SpecError("anchor_skew must be >= 1")
        if self.vocab_per_topic < 2:
            raise SpecError("vocab_per_topic must be >= 2")


@dataclass
class SyntheticData:
    out_dir: str
    paths: dict
    metadata: dict


_SURFACE_SUFFIXES = "xyzuvw"


def _surface_name(group: int, variant: int) -> str:
    if variant < len(_SURFACE_SUFFIXES):
        return "Name%d%s" % (group, _SURFACE_SUFFIXES[variant])
    return "Name%dv%d" % (group, variant)


def _doc_half(spec, topic):
    half = spec.vocab_per_topic // 2
    return ["top%dw%d" % (topic, j) for j in range(half)]


def _body_half(spec, topic):
    half = spec.vocab_per_topic // 2
    return ["top%dw%d" % (topic, j)
            for j in range(half, spec.vocab_per_topic)]


def generate(spec: SyntheticSpec, out_dir) -> SyntheticData:
    """Write the corpus, KB, embedding and metadata files for a spec.

    Output bytes are a pure function of the spec (including its seed).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    os.makedirs(out_dir, exist_ok=True)

    n_groups = spec.n_entities // spec.mention_ambiguity
    filler = ["fill%d" % j for j in range(spec.filler_vocab_size)]

    # Entity groups: ambiguity-many entities with distinct topics, and one
    # surface form per member, each skewed toward a different member.
    # Every member is the dominant link target under exactly one surface,
    # so which candidate the prior favors is a property of the surface
    # string alone.  Surface strings are absent from the embedding
    # vocabulary, which keeps the prior invisible to the encoders: on a
    # document with no topical content, gold is a coin flip given the
    # text, and only the anchor-count features can resolve it.
    groups = []
    amb = spec.mention_ambiguity
    classes = spec.n_topics // amb if spec.n_topics % amb == 0 else 0
    for g in range(n_groups):
        base = (g % classes) * amb if classes else g % spec.n_topics
        members = []
        for s in range(amb):
            members.append({
                "id": "E%03d%s" % (g, chr(65 + s)),
                "topic": (base + s) % spec.n_topics,
            })
        surfaces = [_surface_name(g, v) for v in range(amb)]
        groups.append({"surfaces": surfaces, "members": members})

    # Topic phrase inventory: recurring five-grams over the doc half.
    phrases = {}
    for t in range(spec.n_topics):
        doc_vocab = _doc_half(spec, t)
        phrases[t] = [
            [doc_vocab[int(i)] for i in
             rng.integers(len(doc_vocab), size=PHRASE_LEN)]
            for _ in range(spec.phrases_per_topic)
        ]

    articles = []
    anchors = []
    rare_count = 2
    popular_count = max(rare_count + 1, int(round(rare_count * spec.anchor_skew)))
    for g, group in enumerate(groups):
        for s, member in enumerate(group["members"]):
            body_vocab = _body_half(spec, member["topic"])
            body = " ".join(body_vocab[int(i)] for i in
                            rng.integers(len(body_vocab),
                                         size=spec.body_tokens))
            articles.append({"id": member["id"], "title": "Name%d" % g,
                             "body": body})
            for v, surface in enumerate(group["surfaces"]):
                count = popular_count if s == v else rare_count
                anchors.extend({"anchor_text": surface.lower(),
                                "entity_id": member["id"]}
                               for _ in range(count))

    def make_split(n_docs, id_prefix):
        n_muddy = int(round(n_docs * spec.muddy_fraction))
        n_misleading = int(round(n_docs * spec.misleading_fraction))
        n_clear = n_docs - n_muddy
        if n_misleading > n_clear:
            raise SpecError("rounding made misleading docs exceed clear docs")
        # (is_muddy, is_misleading) per doc; misleading docs are clear.
        kinds = ([(True, False)] * n_muddy
                 + [(False, True)] * n_misleading
                 + [(False, False)] * (n_clear - n_misleading))
        order = rng.permutation(len(kinds))
        # Gold slots alternate per (group, kind) so every split is exactly
        # balanced; an imbalance would let a content model profit on
        # content-free documents by memorizing a per-group majority side.
        slot_counters = {}
        docs = []
        for i in range(n_docs):
            is_muddy, is_misleading = kinds[int(order[i])]
            group = groups[i % n_groups]
            key = (i % n_groups, is_muddy, is_misleading)
            turn = slot_counters.get(key, 0)
            slot_counters[key] = turn + 1
            gold_slot = turn % amb
            gold = group["members"][gold_slot]
            if is_misleading:
                others = [v for v in range(amb) if v != gold_slot]
                variant = others[(turn // amb) % len(others)]
            else:
                variant = gold_slot
            surface = group["surfaces"][variant]
            topic = gold["topic"]

            def filler_run(size):
                return [filler[int(j)] for j in
                        rng.integers(len(filler), size=size)]

            def phrase_run(t):
                if t is None:
                    return filler_run(PHRASE_LEN)
                bank = phrases[t]
                return list(bank[int(rng.integers(len(bank)))])

            # Clear documents carry two gold-topic phrases inside the
            # context window plus distractor phrases from a non-gold
            # candidate's topic far from the mention: usually one (the
            # document still leans the right way), but three in every
            # HEAVY_PERIOD-th, which outweigh the gold phrases in the
            # whole-document topic estimate.  No single
            # weight on the document similarity explains both
            # populations; the local context stays clean.  Muddy
            # documents carry no topical content at all and resolve only
            # via link counts.
            if is_muddy:
                near_topic = None
                far_topic = None
                n_far = 1
                kind = "muddy"
            else:
                near_topic = topic
                others = [m["topic"] for v, m in enumerate(group["members"])
                          if v != gold_slot]
                far_topic = others[turn % len(others)] if others else None
                heavy = turn % HEAVY_PERIOD == 0
                n_far = 3 if heavy else 1
                kind = "heavy-distractor" if heavy else "light-distractor"
            far = []
            for _ in range(n_far):
                far.extend(phrase_run(far_topic))
            f1 = filler_run(int(rng.integers(spec.filler_min,
                                             spec.filler_max + 1)))
            f2 = filler_run(int(rng.integers(spec.filler_min,
                                             spec.filler_max + 1)))
            # The distractor block splits the first filler run: at the
            # document start its tokens would fall in fewer valid windows
            # than the gold phrases' tokens.
            cut = len(f1) // 2
            words = (f1[:cut] + far + f1[cut:] + phrase_run(near_topic)
                     + [MENTION_PREFIX, surface, MENTION_SUFFIX]
                     + phrase_run(near_topic) + f2)
            start = len(far) + len(f1) + PHRASE_LEN
            mention = Mention(doc_id="%s%05d" % (id_prefix, i),
                              start=start, end=start + 3,
                              gold_entity=gold["id"])
            docs.append(Document(mention.doc_id,
                                 [Token(w) for w in words], [mention]))
            doc_kinds[mention.doc_id] = {"kind": kind,
                                         "misleading": is_misleading}
        return docs

    doc_kinds = {}
    train_docs = make_split(spec.n_train_docs, "tr")
    test_docs = make_split(spec.n_test_docs, "te")

    # Embeddings: topic tokens cluster around a per-topic direction;
    # filler gets independent random directions.  Entity surface names
    # are deliberately absent (out-of-vocabulary, as proper names often
    # are), so the only route from a mention to its entity's name is the
    # anchor-text index, never the encoders.  The mention markers are
    # absent too (see the module docstring).
    def unit(v):
        return v / np.linalg.norm(v)

    if spec.n_topics <= spec.embedding_dim:
        basis, _ = np.linalg.qr(rng.normal(size=(spec.embedding_dim,
                                                 spec.n_topics)))
        topic_means = {t: basis[:, t] for t in range(spec.n_topics)}
    else:
        topic_means = {t: unit(rng.normal(size=spec.embedding_dim))
                       for t in range(spec.n_topics)}
    emb = {}
    for t in range(spec.n_topics):
        for tok in _doc_half(spec, t) + _body_half(spec, t):
            emb[tok] = unit(topic_means[t]
                            + EMBEDDING_NOISE
                            * rng.normal(size=spec.embedding_dim))
    for tok in filler:
        emb[tok] = unit(rng.normal(size=spec.embedding_dim))

    paths = {name: os.path.join(out_dir, name) for name in (
        "articles.jsonl", "anchors.jsonl", "train.jsonl", "test.jsonl",
        "embeddings.txt", "metadata.json")}

    with open(paths["articles.jsonl"], "w", encoding="utf-8") as fh:
        for rec in articles:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with open(paths["anchors.jsonl"], "w", encoding="utf-8") as fh:
        for rec in anchors:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    save_corpus(train_docs, paths["train.jsonl"])
    save_corpus(test_docs, paths["test.jsonl"])
    with open(paths["embeddings.txt"], "w", encoding="utf-8") as fh:
        fh.write("%d %d\n" % (len(emb), spec.embedding_dim))
        for tok in sorted(emb):
            fh.write(tok + " " + " ".join("%.6f" % x for x in emb[tok]) + "\n")

    metadata = {
        "spec": asdict(spec),
        "topic_vocab": {str(t): sorted(_doc_half(spec, t) + _body_half(spec, t))
                        for t in range(spec.n_topics)},
        "filler_vocab": filler,
        "groups": groups,
        "documents": doc_kinds,
    }
    with open(paths["metadata.json"], "w", encoding="utf-8") as fh:
        json.dump(metadata, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return SyntheticData(out_dir=str(out_dir), paths=paths, metadata=metadata)
