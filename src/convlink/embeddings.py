"""Fixed word-vector tables in word2vec text format.

Vectors are frozen after loading: the matrix is marked read-only and no
code path in the package mutates it.  Lookup is total -- unknown tokens
resolve to a shared all-zeros vector so they contribute nothing to any
convolution window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FormatError


@dataclass
class EmbeddingTable:
    dim: int
    vocab: dict                 # token -> row index
    vectors: np.ndarray         # (len(vocab), dim), read-only float64
    oov_vector: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("embedding dimension must be positive")
        if self.vectors.shape != (len(self.vocab), self.dim):
            raise DimensionError(
                "vector matrix shape %s does not match vocab size %d and dim %d"
                % (self.vectors.shape, len(self.vocab), self.dim))
        self.vectors.setflags(write=False)
        self.oov_vector = np.zeros(self.dim)
        self.oov_vector.setflags(write=False)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab or token.lower() in self.vocab

    def lookup(self, token: str) -> np.ndarray:
        """Exact match first, then the lowercased token, then OOV."""
        idx = self.vocab.get(token)
        if idx is None:
            idx = self.vocab.get(token.lower())
        if idx is None:
            return self.oov_vector
        return self.vectors[idx]

    def lookup_sequence(self, tokens) -> np.ndarray:
        """Stack lookups into an (n, d) matrix; n may be zero."""
        if not tokens:
            return np.zeros((0, self.dim))
        return np.stack([self.lookup(t) for t in tokens])

    def oov_rate(self, tokens) -> float:
        """Exact fraction of tokens that miss even after lowercasing."""
        if not tokens:
            return 0.0
        misses = sum(1 for t in tokens if t not in self)
        return misses / len(tokens)


def _parse_header(line, path):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError("%s: header must be '<count> <dim>', got %r"
                          % (path, line.strip()))
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError("%s: non-integer header fields %r" % (path, line.strip()))
    if count < 0:
        raise FormatError("%s: negative vocab count" % path)
    if dim < 1:
        raise DimensionError("%s: declared dimension %d is invalid" % (path, dim))
    return count, dim


def load_word2vec(path) -> EmbeddingTable:
    """Read a word2vec text file: a header line ``<count> <dim>``
    followed by one line per word, ``token v1 ... v<dim>``.  Duplicate
    tokens keep the first occurrence.  A NaN or infinite component is a
    format error.
    """
    vocab = {}
    rows = []
    seen = 0
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise FormatError("%s: empty file" % path)
        count, dim = _parse_header(header, path)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            seen += 1
            parts = line.rstrip("\n").split()
            if len(parts) != dim + 1:
                raise FormatError(
                    "%s:%d: expected token plus %d values, got %d fields"
                    % (path, lineno, dim, len(parts)))
            token = parts[0]
            try:
                vec = np.array(parts[1:], dtype=float)
            except ValueError:
                raise FormatError("%s:%d: non-numeric vector component"
                                  % (path, lineno))
            if not np.isfinite(vec).all():
                raise FormatError("%s:%d: non-finite vector component"
                                  % (path, lineno))
            if token in vocab:
                continue
            vocab[token] = len(rows)
            rows.append(vec)
    if seen != count:
        raise FormatError(
            "%s: header declares %d rows but file contains %d"
            % (path, count, seen))
    matrix = np.stack(rows) if rows else np.zeros((0, dim))
    return EmbeddingTable(dim=dim, vocab=vocab, vectors=matrix)
