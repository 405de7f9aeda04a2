"""Configuration, the fixed preparation settings and feature geometry.

Five encoders (three over the source side, two over the target side)
produce topic vectors that are compared pairwise with cosine similarity.
The pairing order below defines the six dense feature slots and is part
of the model file format, so it must never be reordered.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace

SRC_MENTION = "src_mention"
SRC_CONTEXT = "src_context"
SRC_DOCUMENT = "src_document"
TGT_TITLE = "tgt_title"
TGT_DOCUMENT = "tgt_document"

GRANULARITIES = (SRC_MENTION, SRC_CONTEXT, SRC_DOCUMENT, TGT_TITLE, TGT_DOCUMENT)

# Dense feature slot i compares COSINE_PAIRS[i][0] against COSINE_PAIRS[i][1].
COSINE_PAIRS = (
    (SRC_MENTION, TGT_TITLE),
    (SRC_MENTION, TGT_DOCUMENT),
    (SRC_CONTEXT, TGT_TITLE),
    (SRC_CONTEXT, TGT_DOCUMENT),
    (SRC_DOCUMENT, TGT_TITLE),
    (SRC_DOCUMENT, TGT_DOCUMENT),
)

N_DENSE = len(COSINE_PAIRS)

ALL_PAIRS_MASK = (True,) * N_DENSE

CONTEXT_WINDOW = 10         # tokens of context on each side of a mention
DOC_CAP = 2000              # tokens kept of a source or target document
TOP_K = 30                  # candidates per query
HASH_CAPACITY = 2 ** 20     # hashed sparse-feature buckets
FIXED_SETTINGS = {"context_window": CONTEXT_WINDOW, "doc_cap": DOC_CAP,
                  "top_k": TOP_K, "hash_capacity": HASH_CAPACITY}


def needed_granularities(mask) -> frozenset:
    """The encoders that the cosine slots switched on in ``mask`` compare."""
    return frozenset(g for on, pair in zip(mask, COSINE_PAIRS) if on
                     for g in pair)


@dataclass(frozen=True)
class FeatureToggles:
    """Which feature blocks participate in scoring.

    Toggles act only when scoring: a mention is prepared the same way
    under every toggle setting.  ``use_sparse`` gates the indicator
    features (query shape and query-entity compatibility); the
    NULL-candidate indicator always scores because NULL has no other
    signal.  ``dense_mask`` selects a subset of the six cosine slots;
    masked slots are fixed at zero and receive no gradient.
    """

    use_sparse: bool = True
    dense_mask: tuple = ALL_PAIRS_MASK

    def __post_init__(self):
        if len(self.dense_mask) != N_DENSE:
            raise ValueError("dense_mask must have %d entries" % N_DENSE)

    @property
    def use_dense(self) -> bool:
        return any(self.dense_mask)


def toggles_from_name(name: str) -> FeatureToggles:
    """Resolve a configuration name: full, sparse-only (no cosine slot),
    cnn-only (no indicator features), or a name such as
    ``pair:src_document*tgt_document``, which keeps one cosine slot on
    top of cnn-only."""
    if name == "full":
        return FeatureToggles()
    if name == "sparse-only":
        return FeatureToggles(dense_mask=(False,) * N_DENSE)
    if name == "cnn-only":
        return FeatureToggles(use_sparse=False)
    if name.startswith("pair:"):
        src, _, tgt = map(str.strip, name[len("pair:"):].partition("*"))
        if (src, tgt) in COSINE_PAIRS:
            return FeatureToggles(use_sparse=False, dense_mask=tuple(
                pair == (src, tgt) for pair in COSINE_PAIRS))
    raise ValueError(
        "unknown feature configuration %r: expected full, sparse-only, "
        "cnn-only or pair:<src>*<tgt> with <src> one of %s and <tgt> one "
        "of %s" % (name, ", ".join((SRC_MENTION, SRC_CONTEXT, SRC_DOCUMENT)),
                   ", ".join((TGT_TITLE, TGT_DOCUMENT))))


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyperparameters shared by every module.

    ``d`` must match the embedding file actually loaded; ``k`` and
    ``ell`` shape all five filter banks uniformly.
    """

    d: int = 300
    k: int = 150
    ell: int = 5
    init_seed: int = 0
    toggles: FeatureToggles = field(default_factory=FeatureToggles)

    def __post_init__(self):
        for name in ("d", "k", "ell"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be positive" % name)
        if self.init_seed < 0:
            raise ValueError("init_seed must be at least 0")

    def with_toggles(self, toggles: FeatureToggles) -> "ModelConfig":
        return replace(self, toggles=toggles)

    def to_dict(self) -> dict:
        out = dict(asdict(self), **FIXED_SETTINGS)
        out["toggles"]["dense_mask"] = list(self.toggles.dense_mask)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The inverse of ``to_dict``.  A missing, unknown or mistyped
        field is a ValueError: each number must be an int that is not a
        bool (each of ``FIXED_SETTINGS`` its fixed value), ``use_sparse``
        a bool and ``dense_mask`` a list of six bools."""
        data = dict(data)
        names = sorted([f.name for f in fields(cls)] + list(FIXED_SETTINGS))
        if sorted(data) != names:
            raise ValueError("config fields must be %s, got %s"
                             % (", ".join(names), json.dumps(sorted(data))))
        tog = data.pop("toggles")
        if type(tog) is not dict or set(tog) != {"dense_mask", "use_sparse"}:
            raise ValueError("toggles must be an object of dense_mask and "
                             "use_sparse, got %s" % json.dumps(tog))
        for name, value in data.items():
            if type(value) is not int:
                raise ValueError("%s must be an integer, got %s"
                                 % (name, json.dumps(value)))
            if FIXED_SETTINGS.get(name, value) != value:
                raise ValueError("%s must be %d, got %d"
                                 % (name, FIXED_SETTINGS[name], value))
        if type(tog["use_sparse"]) is not bool:
            raise ValueError("use_sparse must be a boolean, got %s"
                             % json.dumps(tog["use_sparse"]))
        mask = tog["dense_mask"]
        if (type(mask) is not list or len(mask) != N_DENSE
                or any(type(x) is not bool for x in mask)):
            raise ValueError("dense_mask must be a list of %d booleans, got %s"
                             % (N_DENSE, json.dumps(mask)))
        return cls(toggles=FeatureToggles(tog["use_sparse"], tuple(mask)),
                   **{n: data[n] for n in data.keys() - FIXED_SETTINGS})
