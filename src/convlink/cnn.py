"""Convolutional text encoders and the six-way cosine feature extractor.

Each granularity g has a filter bank M_g of shape (k, d*ell).  A token
sequence embedded as rows w_1..w_n is encoded by sliding a width-ell
window, applying the bank, rectifying, and sum pooling:

    v_g[r] = sum_j max(0, M_g[r] . concat(w_j, ..., w_{j+ell-1}))

with j ranging over all n' - ell + 1 windows of the (possibly padded)
length-n' sequence.  Sequences shorter than ell are zero-padded
symmetrically to length ell so every input yields at least one window.
Topic vectors from the three source granularities and two target
granularities are compared pairwise with cosine similarity, producing
six dense features with exact analytic gradients for every bank.

Banks are plain arrays here; where they live in the model's parameter
vector is ``model.py``'s concern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import (ALL_PAIRS_MASK, COSINE_PAIRS, N_DENSE,
                     needed_granularities)
from .errors import CacheError, DimensionError

COSINE_EPS = 1e-12


def window_matrix(X: np.ndarray, ell: int) -> np.ndarray:
    """All width-ell windows of an (n, d) sequence as rows of concatenated
    embeddings.  A sequence of at most ell rows is zero-padded
    symmetrically into one window."""
    n, d = X.shape
    if n <= ell:
        P = np.zeros((ell, d))
        P[(ell - n) // 2:(ell - n) // 2 + n] = X
        return P.reshape(1, ell * d)
    view = np.lib.stride_tricks.sliding_window_view(X, (ell, d))
    return view.reshape(n - ell + 1, ell * d)


# The embedding width at or below which no ``View`` gathers: where
# a gather reads one element of a projected row, the windows product
# spends d multiply-adds, and the read costs about this many of them.
GATHER_COST = 25


class View:
    """One token sequence prepared for filter width ``ell``: its n
    tokens' rows ``rows`` in the embedding ``table``, -1 out of
    vocabulary.  ``gathers`` is the one encode rule: a view of more than
    ell tokens at d > GATHER_COST gathers its pre-activations from a
    ``RowStore``; any other view takes its windows times the bank.

    ``windows`` is the view's ``window_matrix``.  A gathered view builds
    it from the table on each read and never keeps it, so only the
    backward pass ever holds it; any other view keeps it, a strided view
    of its embedded (n, d) rows ``X``.  ``X`` and ``distinct``, the
    view's distinct rows ascending with each token's index into them,
    are built the first time they are read and kept."""

    def __init__(self, rows, table, ell: int):
        self.rows, self.table, self.ell = rows, table, ell
        self._X = self._windows = self._distinct = None
        self.n, self.d = len(rows), table.dim
        self.gathers = self.n > ell and self.d > GATHER_COST

    @property
    def X(self) -> np.ndarray:
        if self._X is None:
            self._X = self.table.lookup_sequence(self.rows)
        return self._X

    @property
    def windows(self) -> np.ndarray:
        if self.gathers:
            ids = np.lib.stride_tricks.sliding_window_view(self.rows, self.ell)
            return self.table.lookup_sequence(ids.ravel()).reshape(
                len(ids), self.ell * self.d)
        if self._windows is None:
            self._windows = window_matrix(self.X, self.ell)
        return self._windows

    @property
    def distinct(self):
        if self._distinct is None:
            self._distinct = np.unique(self.rows, return_inverse=True)
        return self._distinct


def embed(table, surfaces, ell: int) -> View:
    """The ``View`` of a token sequence in ``table``."""
    return View(np.array([table.row(t) for t in surfaces], dtype=np.intp),
                table, ell)


class Encoding:
    """One view under one bank: its pooled topic vector and that vector's
    norm, and the ``View`` and its (windows x k) pre-activations, both
    None for a topic vector taken from a memo."""

    def __init__(self, topic, view=None, pre=None):
        self.topic, self.view, self.pre = topic, view, pre
        self.norm = np.linalg.norm(topic)


def _encode(M: np.ndarray, view: View, store=None) -> Encoding:
    """Encode one ``View`` with one (k, d*ell) filter bank ``M``.

    A view that ``gathers`` reads its pre-activations from ``store``, a
    ``RowStore`` of ``M`` over the view's table, or else from a fresh
    one; a store kept across views projects each row once.  Any other
    view takes its windows times the bank.  The two paths encode equal
    up to rounding."""
    if view.d * view.ell != M.shape[1]:
        raise DimensionError(
            "window width %d does not match bank width d*ell = %d"
            % (view.d * view.ell, M.shape[1]))
    if view.gathers:
        A = (RowStore(M, view.table) if store is None else store).gather(view)
    else:
        A = view.windows @ M.T
    return Encoding(np.maximum(A, 0.0).sum(axis=0), view, A)


class RowStore:
    """Rows of the embedding ``table`` projected through one (k, d*ell)
    bank ``M``, each the first time a view gathers it: the bank's ell
    blocks M_j, each (k, d), apply once to a row w as P_j = w M_j^T.
    ``slot`` holds each table row's slot s, -1 until stored, with the
    OOV row -1 in its last entry; rows ell*s .. ell*s + ell - 1 of ``P``
    hold its P_0 .. P_{ell-1}, so each gather reads k contiguous values.
    ``P`` doubles when full, and only the rows of stored slots are
    written.

    A store kept across views is only valid while ``M`` is frozen; one
    made for a single view encodes it exactly as its windows would be,
    up to rounding."""

    def __init__(self, M: np.ndarray, table):
        self.M, self.table = M, table
        self.slot = np.full(len(table.vectors) + 1, -1, dtype=np.intp)
        self.stored = 0
        self.P = np.empty((0, M.shape[0]))

    def _project(self, U: np.ndarray) -> np.ndarray:
        """The (u, ell, k) products of the rows U with the ell blocks;
        M's columns are ell blocks of d."""
        k = self.M.shape[0]
        return (U @ self.M.reshape(-1, U.shape[1]).T).reshape(
            len(U), k, -1).transpose(0, 2, 1)

    def gather(self, view: View):
        """The (windows x k) pre-activations of a view of this table,
        A = sum_j P_j[ids[j : j + n']], projecting its rows not yet
        stored."""
        k, ell = self.M.shape[0], self.M.shape[1] // self.table.dim
        row_ids, ids = view.distinct
        slot = self.slot[row_ids]
        new = np.flatnonzero(slot < 0)
        if len(new):
            n, m = self.stored, len(new)
            slot[new] = self.slot[row_ids[new]] = np.arange(n, n + m)
            self.stored += m
            if len(self.P) < (n + m) * ell:
                P = np.empty((max(2 * len(self.P), (n + m) * ell), k))
                P[:n * ell] = self.P[:n * ell]
                self.P = P
            self.P[n * ell:(n + m) * ell].reshape(m, ell, k)[:] = \
                self._project(self.table.lookup_sequence(row_ids[new]))
        rows = slot[ids] * ell
        n_windows = view.n - ell + 1
        A = self.P[rows[:n_windows]]
        for j in range(1, ell):
            A += self.P[rows[j:j + n_windows] + j]
        return A


class Memo(dict):
    """What a frozen model's forward passes share: each target ``View``
    already encoded, mapped to its ``Encoding`` without a view, and in
    ``stores`` one ``RowStore`` over ``table`` per bank of ``banks``,
    from which every view that ``_encode`` gathers reads."""

    def __init__(self, banks: dict, table):
        super().__init__()
        self.stores = {g: RowStore(M, table) for g, M in banks.items()}


def _cosine(u: Encoding, w: Encoding):
    """Cosine similarity of two topic vectors, or None when either norm
    is below epsilon: the feature is then 0 and has no gradient."""
    if u.norm < COSINE_EPS or w.norm < COSINE_EPS:
        return None
    return np.dot(u.topic, w.topic) / (u.norm * w.norm)


def embed_views(table, views, ell: int) -> dict:
    """Each source view's ``View`` for filter width ``ell``."""
    return {g: embed(table, [t.surface for t in toks], ell)
            for g, toks in (("src_mention", views.mention_tokens),
                            ("src_context", views.context_tokens),
                            ("src_document", views.document_tokens))}


@dataclass
class ForwardCache:
    """One mention's forward pass, kept for ``backward``.

    ``source`` maps each source granularity the mask needs to its
    Encoding; ``targets`` holds the same for each candidate's target
    views, or None for NULL.  ``fc`` is the (T, 6) matrix of cosine
    features.

    A ``memoized`` pass may have taken target encodings from a memo,
    without their views or pre-activations, so it cannot be
    backpropagated.
    """
    mask: tuple
    source: dict
    targets: list
    fc: np.ndarray
    memoized: bool = False


def forward_from_matrices(banks: dict, source_views: dict,
                          target_views, mask: tuple = ALL_PAIRS_MASK,
                          memo=None) -> ForwardCache:
    """Encode one mention's source views once and every candidate's
    target views with ``banks`` (granularity -> (k, d*ell) array), then
    compare them under ``mask``.

    ``source_views`` maps source granularity to a ``View``;
    ``target_views`` holds one such dict per candidate, or None for the
    NULL candidate, whose six features stay zero.

    ``memo``, a ``Memo`` of these banks for frozen weights only, maps
    each target ``View`` already encoded to its ``Encoding`` without a
    view; a view missing from it is encoded and stored.  Every view that
    ``_encode`` gathers, source or target, reads the memo's store for
    its bank, which projects each embedding row once; without a memo it
    reads a fresh store.  So a view that takes the windows encodes
    bit-identically with and without a memo, and a gathered one equal to
    rounding.
    """
    mask = tuple(mask)
    needed = needed_granularities(mask)
    stores = {} if memo is None else memo.stores

    def encode_view(g, view):
        return _encode(banks[g], view, stores.get(g))

    def encode_target(g, view):
        if memo is None:
            return encode_view(g, view)
        enc = memo.get(view)
        if enc is None:
            enc = memo[view] = Encoding(encode_view(g, view).topic)
        return enc

    source = {g: encode_view(g, view)
              for g, view in source_views.items() if g in needed}
    targets = [None if views is None else
               {g: encode_target(g, view) for g, view in views.items()
                if g in needed}
               for views in target_views]
    fc = np.zeros((len(targets), N_DENSE))
    for ti, tgt in enumerate(targets):
        if tgt is None:
            continue
        for i, (on, (src_g, tgt_g)) in enumerate(zip(mask, COSINE_PAIRS)):
            c = _cosine(source[src_g], tgt[tgt_g]) if on else None
            if c is not None:
                fc[ti, i] = min(max(c, -1.0), 1.0)
    return ForwardCache(mask=mask, source=source, targets=targets, fc=fc,
                        memoized=memo is not None)


def backward(cache: ForwardCache, upstream: np.ndarray, grads: dict) -> None:
    """Add the gradient of ``sum(upstream * fc)`` w.r.t. the banks of
    the forward pass into ``grads``, granularity -> (k, d*ell) array.
    Only the banks the mask's cosine slots compare get a gradient.

    ``upstream`` is (T, 6), one row per candidate.  The source-side
    topic gradients are summed over candidates before they reach the
    source banks.  The ReLU subgradient at exactly zero is taken as
    zero; cosine gradients are zero inside the epsilon guard region.
    """
    if cache is None:
        raise CacheError("backward requires the cached forward pass")
    if cache.memoized:
        raise CacheError("forward pass used memoized target vectors and "
                         "kept no target views")
    upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != cache.fc.shape:
        raise DimensionError("upstream gradient must be %s, got %s"
                             % (cache.fc.shape, upstream.shape))
    d_source = {g: np.zeros(len(enc.topic)) for g, enc in cache.source.items()}
    for ti, tgt in enumerate(cache.targets):
        if tgt is None:
            continue
        d_target = {g: np.zeros(len(enc.topic)) for g, enc in tgt.items()}
        for i, (on, (src_g, tgt_g)) in enumerate(zip(cache.mask, COSINE_PAIRS)):
            up = upstream[ti, i]
            if not on or up == 0.0:
                continue
            a, b = cache.source[src_g], tgt[tgt_g]
            c = _cosine(a, b)
            if c is None:
                continue
            u, nu, w, nw = a.topic, a.norm, b.topic, b.norm
            d_source[src_g] += up * (w / (nu * nw) - c * u / (nu * nu))
            d_target[tgt_g] += up * (u / (nu * nw) - c * w / (nw * nw))
        _backprop_pooling(grads, tgt, d_target)
    _backprop_pooling(grads, cache.source, d_source)


def _backprop_pooling(grads: dict, encodings: dict, dv: dict) -> None:
    """Chain topic-vector gradients through sum pooling and the ReLU
    into ``grads``, one gradient array per granularity."""
    for g, dvg in dv.items():
        if not dvg.any():
            continue
        enc = encodings[g]
        grads[g] += (((enc.pre > 0.0) * dvg[np.newaxis, :]).T
                     @ enc.view.windows)
