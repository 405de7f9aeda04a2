"""Fixed word-vector tables in word2vec text format.

Vectors are frozen after loading: the matrix is marked read-only and no
code path in the package mutates it.  Lookup is total -- an unknown
token reads as a row of zeros, so it contributes nothing to any
convolution window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FormatError
from .textproc import text_lines

# The largest component magnitude a table may hold.  Word2vec components
# are of order 1, so a larger one can only be damage, such as a flipped
# exponent bit.  model.WEIGHT_LIMIT's overflow margin assumes this bound.
COMPONENT_LIMIT = 1e10


@dataclass
class EmbeddingTable:
    dim: int
    vocab: dict                 # token -> row index
    vectors: np.ndarray         # (len(vocab), dim), read-only float64

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("embedding dimension must be positive")
        if self.vectors.shape != (len(self.vocab), self.dim):
            raise DimensionError(
                "vector matrix shape %s does not match vocab size %d and dim %d"
                % (self.vectors.shape, len(self.vocab), self.dim))
        self.vectors.setflags(write=False)

    def __contains__(self, token: str) -> bool:
        return self.row(token) >= 0

    def row(self, token: str) -> int:
        """Exact match first, then the lowercased token; -1 when out of
        vocabulary."""
        idx = self.vocab.get(token)
        if idx is None:
            idx = self.vocab.get(token.lower(), -1)
        return idx

    def lookup_sequence(self, rows: np.ndarray) -> np.ndarray:
        """The (n, d) matrix of the vectors at the table rows ``rows``,
        zero at the OOV row -1; n may be zero."""
        if not self.vocab:
            return np.zeros((len(rows), self.dim))
        X = self.vectors[rows]
        X[rows < 0] = 0.0
        return X

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


def _bad_line(path, values, linenos, dim, exc):
    """The FormatError for ``np.loadtxt``'s failure ``exc`` over the
    value fields ``values`` of the lines ``linenos``: the same parser,
    run on one line at a time, names the first line it rejects or reads
    as other than ``dim`` values."""
    for text, lineno in zip(values, linenos):
        try:
            n = np.loadtxt([text], comments=None, ndmin=2).shape[1]
        except ValueError:
            return FormatError("%s:%d: non-numeric vector component"
                               % (path, lineno))
        if n != dim:
            return FormatError(
                "%s:%d: expected token plus %d values, got %d fields"
                % (path, lineno, dim, n + 1))
    return FormatError("%s: %s" % (path, exc))


def load_word2vec(path) -> EmbeddingTable:
    """Read a word2vec text file: a header line ``<count> <dim>``
    followed by one line per word, ``token v1 ... v<dim>``.  Duplicate
    tokens keep the first occurrence.  A NaN or infinite component, or
    one beyond ``COMPONENT_LIMIT`` in magnitude, is a format error.

    Each line is split once into its token and the rest, and one
    ``np.loadtxt`` parses every rest.
    """
    tokens, values, linenos = [], [], []
    lines = text_lines(path)
    _, header = next(lines, (1, ""))
    if not header:
        raise FormatError("%s: empty file" % path)
    count, dim = _parse_header(header, path)
    for lineno, line in lines:
        parts = line.split(None, 1)
        if not parts:
            continue
        if len(parts) == 1:
            raise FormatError(
                "%s:%d: expected token plus %d values, got 1 fields"
                % (path, lineno, dim))
        tokens.append(parts[0])
        values.append(parts[1])
        linenos.append(lineno)
    matrix = np.zeros((0, dim))
    if values:
        try:
            matrix = np.loadtxt(values, comments=None, ndmin=2)
            if matrix.shape[1] != dim:
                raise ValueError("expected %d values per line" % dim)
        except ValueError as exc:
            raise _bad_line(path, values, linenos, dim, exc) from None
        # a NaN fails both comparisons and an infinity fails one
        ok = ((matrix.max(axis=1) <= COMPONENT_LIMIT)
              & (matrix.min(axis=1) >= -COMPONENT_LIMIT))
        if not ok.all():
            i = int(np.argmin(ok))
            what = ("vector component beyond %g in magnitude" % COMPONENT_LIMIT
                    if np.isfinite(matrix[i]).all()
                    else "non-finite vector component")
            raise FormatError("%s:%d: %s" % (path, linenos[i], what))
    if len(tokens) != count:
        raise FormatError(
            "%s: header declares %d rows but file contains %d"
            % (path, count, len(tokens)))
    vocab = {}
    for i, token in enumerate(tokens):
        vocab.setdefault(token, i)
    if len(vocab) < len(tokens):
        matrix = matrix[list(vocab.values())]
        vocab = {token: row for row, token in enumerate(vocab)}
    return EmbeddingTable(dim=dim, vocab=vocab, vectors=matrix)
