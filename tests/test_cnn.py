import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink import cnn
from convlink.config import (COSINE_PAIRS, GRANULARITIES, N_DENSE,
                             ModelConfig, needed_granularities)
from convlink.errors import CacheError, DimensionError
from convlink.model import Model
from helpers import (built, encode, encodings, make_table, matrix_view,
                     tiny_world, toks)


def reference_encode(M, X, ell):
    """Independent direct-summation reference for the encoder.

    Literal translation of the definition: zero-pad symmetrically to the
    filter width, then for every window sum the rectified responses.
    """
    n, d = X.shape
    if n < ell:
        before = (ell - n) // 2
        after = ell - n - before
        X = np.vstack([np.zeros((before, d)), X, np.zeros((after, d))])
    k = M.shape[0]
    v = np.zeros(k)
    for j in range(len(X) - ell + 1):
        window = np.concatenate([X[j + t] for t in range(ell)])
        for r in range(k):
            a = float(np.dot(M[r], window))
            if a > 0.0:
                v[r] += a
    return v


def random_bank(rng, k=3, ell=2, d=4):
    return rng.normal(size=(k, ell * d))


class TestEncode:
    def test_zero_bank_gives_zero_vector(self):
        rng = np.random.default_rng(0)
        v = encode(np.zeros((3, 8)), rng.normal(size=(6, 4)), 2)
        assert np.array_equal(v, np.zeros(3))

    def test_single_window_reduction(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(1, 8))
        X = rng.normal(size=(2, 4))       # exactly one window
        v = encode(m, X, 2)
        expected = max(0.0, float(m[0] @ X.reshape(-1)))
        assert v == pytest.approx([expected], abs=1e-12)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(100):
            k = int(rng.integers(1, 5))
            ell = int(rng.integers(1, 4))
            d = int(rng.integers(1, 5))
            n = int(rng.integers(0, 11))      # includes n < ell padded cases
            M = rng.normal(size=(k, ell * d))
            X = rng.normal(size=(n, d))
            got = encode(M, X, ell)
            want = reference_encode(M, X, ell)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            encode(np.zeros((2, 8)), np.zeros((3, 5)), 2)

    def test_positive_homogeneity_exact(self):
        # row scaling by powers of two is exact in binary floating point
        rng = np.random.default_rng(3)
        bank = random_bank(rng, k=4, ell=2, d=3)
        X = rng.normal(size=(7, 3))
        base = encode(bank, X, 2)
        for c in (2.0, 0.5, 4.0):
            M2 = bank.copy()
            M2[1] *= c
            v2 = encode(M2, X, 2)
            assert v2[1] == c * base[1]
            assert np.array_equal(np.delete(v2, 1), np.delete(base, 1))

    def test_permutation_covariance(self):
        rng = np.random.default_rng(4)
        bank = random_bank(rng, k=5, ell=2, d=3)
        X = rng.normal(size=(6, 3))
        perm = rng.permutation(5)
        assert np.array_equal(encode(bank[perm], X, 2),
                              encode(bank, X, 2)[perm])

    def test_window_locality(self):
        rng = np.random.default_rng(5)
        ell, d = 3, 2
        bank = random_bank(rng, k=2, ell=ell, d=d)
        X = rng.normal(size=(10, d))
        W = cnn.window_matrix(X, ell)
        A = W @ bank.T
        p = 5
        X2 = X.copy()
        X2[p] = rng.normal(size=d)
        A2 = cnn.window_matrix(X2, ell) @ bank.T
        for j in range(A.shape[0]):
            overlaps = j <= p <= j + ell - 1
            if overlaps:
                assert not np.allclose(A[j], A2[j])
            else:
                assert np.array_equal(A[j], A2[j])

    @given(st.integers(min_value=0, max_value=6),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, derandomize=True, database=None)
    def test_padding_always_yields_a_window(self, n, ell):
        rng = np.random.default_rng(n * 7 + ell)
        X = rng.normal(size=(n, 3))
        W = cnn.window_matrix(X, ell)
        assert W.shape == (max(n - ell + 1, 1), ell * 3)


def repeating_tokens(rng, n, u, oov=2):
    """n tokens drawn from u in-vocabulary words ("t0".."t<u-1>") and
    ``oov`` unknown ones, each word used at least once."""
    words = ["t%d" % i for i in range(u)] + ["oov%d" % i for i in range(oov)]
    tokens = words + [words[int(i)]
                      for i in rng.integers(len(words), size=n - len(words))]
    rng.shuffle(tokens)
    return tokens


def paper_table(d, u=180, seed=0):
    return make_table(["t%d" % i for i in range(u)], dim=d, seed=seed)


def encode_path(view, memo=False):
    """How ``cnn._encode`` encodes a ``view`` whose windows are not yet
    built: "windows", or "store" for a gather, which never builds them;
    given no store, or with ``memo`` a ``cnn.RowStore`` as a memo's."""
    assert "windows" not in built(view)
    bank = np.ones((2, view.d * view.ell))
    cnn._encode(bank, view, cnn.RowStore(bank, view.table) if memo else None)
    return "windows" if "windows" in built(view) else "store"


class TestProjection:
    """Views whose distinct rows are projected once (see ``cnn._encode``)."""

    def test_matches_reference_encoder(self):
        rng = np.random.default_rng(30)
        table = paper_table(64)
        for trial in range(20):
            ell = int(rng.integers(1, 6))
            n = int(rng.integers(40, 120))
            u = int(rng.integers(3, 12))
            bank = random_bank(rng, k=int(rng.integers(1, 6)), ell=ell, d=64)
            view = cnn.embed(table, repeating_tokens(rng, n, u), ell)
            enc = cnn._encode(bank, view)
            assert "windows" not in built(view)       # gathered
            want = reference_encode(bank, view.X, ell)
            assert np.max(np.abs(enc.topic - want)) < 1e-10
            assert np.max(np.abs(enc.pre - view.windows @ bank.T)) < 1e-10

    def test_oov_tokens_share_one_zero_row(self):
        rng = np.random.default_rng(31)
        tokens = repeating_tokens(rng, 60, 4, oov=3)
        table = paper_table(64)
        view = cnn.embed(table, tokens, 2)
        row_ids, ids = view.distinct
        assert len(row_ids) == 5             # four words and one OOV row
        # row -1 sorts first, and its tokens embed as zeros
        assert row_ids[0] == -1 and not np.any(view.X[ids == 0])
        assert np.array_equal(view.X, table.lookup_sequence(row_ids)[ids])

    def test_store_keeps_oov_apart_from_the_last_table_row(self):
        # row -1 reads the slot table's own last entry, so a stored OOV
        # row and the table's last row, t3, never share a slot
        rng = np.random.default_rng(35)
        table = paper_table(64, u=4)
        bank = random_bank(rng, k=3, ell=2, d=64)
        store = cnn.RowStore(bank, table)
        for _ in range(2):          # the second pass reads stored slots
            view = cnn.embed(table, repeating_tokens(rng, 40, 4), 2)
            assert view.distinct[0].tolist() == [-1, 0, 1, 2, 3]
            A = store.gather(view)
            assert np.max(np.abs(A - view.windows @ bank.T)) < 1e-10

    def test_rule_takes_projection_for_paper_like_bodies(self):
        # a 300-token body with about 175 distinct rows at d=300, ell=5
        rng = np.random.default_rng(32)
        tokens = repeating_tokens(rng, 300, 170, oov=5)
        view = cnn.embed(paper_table(300, u=170), tokens, 5)
        assert encode_path(view) == "store" and len(view.distinct[0]) == 171

    @pytest.mark.parametrize("d", [1, 16, cnn.GATHER_COST])
    def test_rule_never_projects_at_or_below_gather_cost(self, d):
        # even one token repeated 500 times keeps the windows, with or
        # without a memo, and never takes its distinct rows
        for memo in (False, True):
            view = cnn.embed(paper_table(d, u=1), ["t0"] * 500, 5)
            assert encode_path(view, memo) == "windows"
            assert "distinct" not in built(view)

    @pytest.mark.parametrize("n", range(0, 6))
    def test_rule_never_projects_views_of_at_most_ell_rows(self, n):
        for memo in (False, True):
            view = cnn.embed(paper_table(300, u=1), ["t0"] * n, 5)
            assert encode_path(view, memo) == "windows"
            assert view.windows.shape == (1, 1500)

    def test_tiny_world_at_acceptance_width_takes_windows(self):
        for seed in range(5):
            w = tiny_world(seed=seed, d=16)
            views = list(w.prep.source_views.values()) + [
                v for tgt in w.prep.target_views if tgt is not None
                for v in tgt.values()]
            assert views and all(encode_path(v) == "windows" for v in views)

    def test_finite_differences(self):
        # criterion 1's h and bound, on views wide and repetitive enough
        # to take the projection; a sample of entries of every bank
        rng = np.random.default_rng(34)
        d, ell = 64, 2
        table = paper_table(d, u=12, seed=1)
        banks = make_banks(rng, k=3, ell=ell, d=d)
        for _ in range(50):
            views = [cnn.embed(table, repeating_tokens(rng, n, 10), ell)
                     for n in (30, 40, 60, 30, 50)]
            source = dict(zip(GRANULARITIES[:3], views[:3]))
            targets = [dict(zip(GRANULARITIES[3:], views[3:]))]
            cache = cnn.forward_from_matrices(banks, source, targets)
            if min(np.min(np.abs(e.pre)) for e in encodings(cache)) > 1e-3:
                break
        else:
            raise AssertionError("could not sample views away from kinks")
        assert not any("windows" in built(v) for v in views)    # gathered
        upstream = rng.normal(size=(1, 6))

        def objective():
            fc = cnn.forward_from_matrices(banks, source, targets).fc
            return float(np.sum(upstream * fc))

        grads = bank_grads(banks, cache, upstream)
        h = 1e-5
        worst = 0.0
        for g in GRANULARITIES:
            M = banks[g]
            for r, c in zip(rng.integers(M.shape[0], size=12),
                            rng.integers(M.shape[1], size=12)):
                orig = M[r, c]
                M[r, c] = orig + h
                up = objective()
                M[r, c] = orig - h
                dn = objective()
                M[r, c] = orig
                fd = (up - dn) / (2 * h)
                an = grads[g][r, c]
                rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                worst = max(worst, rel)
        assert worst < 1e-4


def cosine(u, w):
    """The shared cosine helper on two bare topic vectors."""
    return cnn._cosine(cnn.Encoding(u), cnn.Encoding(w))


class TestCosine:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_antiparallel(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, -v) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_guard(self):
        # inside the guard the helper gives no cosine and the forward
        # pass writes a 0 feature
        v = np.array([1.0, 2.0, 3.0])
        assert cosine(np.zeros(3), v) is None
        assert cosine(np.full(3, 1e-14), v) is None
        rng = np.random.default_rng(18)
        banks = make_banks(rng, k=3)
        banks["src_mention"][:] = 0.0
        cache = cnn.forward_from_matrices(banks, *random_mats(rng))
        assert cache.source["src_mention"].norm == 0.0
        assert np.array_equal(cache.fc[0, :2], np.zeros(2))
        assert np.any(cache.fc[0, 2:] != 0.0)

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=100, derandomize=True, database=None)
    def test_rescaling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4)
        w = rng.normal(size=4)
        c = float(rng.uniform(0.01, 100.0))
        assert cosine(c * u, w) == pytest.approx(cosine(u, w), abs=1e-12)
        assert abs(cosine(u, w)) <= 1.0


def make_banks(rng, k=3, ell=2, d=4):
    return {g: random_bank(rng, k, ell, d) for g in GRANULARITIES}


def random_views(rng, d, lens, ell=2):
    """The ``cnn.View``s of random (n, d) views."""
    return {g: matrix_view(rng.normal(size=(n, d)), ell)
            for g, n in lens.items()}


def random_mats(rng, d=4, lens=(1, 3, 6, 2, 5)):
    """Source views and a one-candidate target list, as ``cnn.View``s."""
    mats = random_views(rng, d, dict(zip(GRANULARITIES, lens)))
    source = {g: mats.pop(g) for g in GRANULARITIES[:3]}
    return source, [mats]


def bank_grads(banks, cache, upstream):
    """``cnn.backward``'s gradient as a dict granularity -> dM, each
    shaped as its bank."""
    grads = {g: np.zeros_like(M) for g, M in banks.items()}
    cnn.backward(cache, upstream, grads)
    return grads


class TestExtractFc:
    def test_identical_input_symmetry(self):
        table = make_table(["pink", "floyd"], dim=4, seed=0)
        rng = np.random.default_rng(6)
        banks = make_banks(rng)
        # share one bank between the mention and title encoders
        banks["tgt_title"] = banks["src_mention"].copy()
        views = type("V", (), {})()
        views.mention_tokens = toks("pink", "floyd")
        views.context_tokens = toks("pink", "floyd")
        views.document_tokens = toks("pink", "floyd")
        target = {g: cnn.embed(table, words, 2)
                  for g, words in (("tgt_title", ["pink", "floyd"]),
                                   ("tgt_document", ["other", "words"]))}
        fc = cnn.forward_from_matrices(banks,
                                       cnn.embed_views(table, views, 2),
                                       [target]).fc
        assert fc[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_null_candidate_all_zero(self):
        rng = np.random.default_rng(7)
        banks = make_banks(rng)
        source, _ = random_mats(rng)
        cache = cnn.forward_from_matrices(banks, source, [None])
        assert np.array_equal(cache.fc, np.zeros((1, 6)))

    def test_components_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            banks = make_banks(rng)
            cache = cnn.forward_from_matrices(banks, *random_mats(rng))
            assert np.all(cache.fc >= -1.0) and np.all(cache.fc <= 1.0)

    def test_mask_skips_components(self):
        rng = np.random.default_rng(9)
        banks = make_banks(rng)
        mask = (True, False, False, False, False, True)
        cache = cnn.forward_from_matrices(banks, *random_mats(rng), mask)
        assert cache.fc[0, 1] == 0.0 and cache.fc[0, 2] == 0.0
        assert cache.fc[0, 0] != 0.0 or cache.fc[0, 5] != 0.0


def away_from_kinks(rng, banks, min_gap=1e-3):
    """Sample input matrices until no pre-activation sits near zero."""
    for _ in range(200):
        source, targets = random_mats(rng)
        cache = cnn.forward_from_matrices(banks, source, targets)
        gaps = [np.min(np.abs(enc.pre)) for enc in encodings(cache)]
        norms = [enc.norm for enc in encodings(cache)]
        if min(gaps) > min_gap and min(norms) > 1e-6:
            return (source, targets), cache
    raise AssertionError("could not sample inputs away from ReLU kinks")


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(10)
        banks = make_banks(rng)
        _, cache = away_from_kinks(rng, banks)
        grads = bank_grads(banks, cache, np.zeros((1, 6)))
        assert all(np.array_equal(g, 0 * g) for g in grads.values())

    def test_structural_sparsity(self):
        # component 0 pairs mention with title: no other bank may move
        rng = np.random.default_rng(11)
        banks = make_banks(rng)
        _, cache = away_from_kinks(rng, banks)
        upstream = np.zeros((1, 6))
        upstream[0, 0] = 1.0
        grads = bank_grads(banks, cache, upstream)
        for g in ("src_context", "src_document", "tgt_document"):
            assert np.array_equal(grads[g], np.zeros_like(grads[g]))
        assert np.any(grads["src_mention"] != 0.0)
        assert np.any(grads["tgt_title"] != 0.0)

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        banks = make_banks(rng)
        mats, cache = away_from_kinks(rng, banks)
        upstream = rng.normal(size=(1, 6))

        def objective():
            return float(np.sum(upstream
                                * cnn.forward_from_matrices(banks, *mats).fc))

        grads = bank_grads(banks, cache, upstream)
        h = 1e-5
        worst = 0.0
        for g in GRANULARITIES:
            M = banks[g]
            for r in range(M.shape[0]):
                for c in range(M.shape[1]):
                    orig = M[r, c]
                    M[r, c] = orig + h
                    up = objective()
                    M[r, c] = orig - h
                    dn = objective()
                    M[r, c] = orig
                    fd = (up - dn) / (2 * h)
                    an = grads[g][r, c]
                    rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
                    worst = max(worst, rel)
        assert worst < 1e-4

    def test_stale_cache_rejected(self):
        with pytest.raises(CacheError):
            cnn.backward(None, np.ones((1, 6)), {})

    def test_null_state_zero_grads(self):
        rng = np.random.default_rng(14)
        banks = make_banks(rng)
        source, _ = random_mats(rng)
        cache = cnn.forward_from_matrices(banks, source, [None])
        grads = bank_grads(banks, cache, np.ones((1, 6)))
        assert all(not np.any(g) for g in grads.values())

    @pytest.mark.parametrize("mask", [(True,) * 6,
                                      (True, False, False, False, False, True)])
    def test_batch_equals_single_candidate_calls(self, mask):
        # one pass over T candidates (NULL in the middle) against T passes
        # over one candidate each, summing their bank gradients; the banks
        # the mask does not compare keep all-zero gradient spans
        rng = np.random.default_rng(17)
        banks = make_banks(rng)
        source, _ = random_mats(rng)
        targets = [random_views(rng, 4, {"tgt_title": n, "tgt_document": m})
                   for n, m in ((2, 5), (1, 7), (3, 4))]
        targets.insert(1, None)
        upstream = rng.normal(size=(len(targets), 6))
        batch = cnn.forward_from_matrices(banks, source, targets, mask)
        batch_grads = bank_grads(banks, batch, upstream)
        needed = needed_granularities(mask)
        assert {g for g, dM in batch_grads.items() if np.any(dM)} == needed
        summed = {g: np.zeros_like(banks[g]) for g in needed}
        for ti, target in enumerate(targets):
            single = cnn.forward_from_matrices(banks, source, [target], mask)
            assert np.max(np.abs(single.fc[0] - batch.fc[ti])) < 1e-12
            for g, dM in bank_grads(banks, single,
                                    upstream[ti:ti + 1]).items():
                if g in needed:
                    summed[g] += dM
                else:
                    assert not np.any(dM)
        assert np.array_equal(batch.fc[1], np.zeros(6))
        for g in needed:
            scale = np.max(np.abs(summed[g]))
            assert np.max(np.abs(batch_grads[g] - summed[g])) <= 1e-10 * scale
        assert any(np.any(dM) for dM in batch_grads.values())


class TestParams:
    # the layout of the banks in theta is model.py's; these pin the draw
    def test_initialization_range_and_determinism(self):
        cfg = ModelConfig(k=5, ell=3, d=4, init_seed=42)
        w1 = Model.initialize(cfg).theta[N_DENSE:]
        w2 = Model.initialize(cfg).theta[N_DENSE:]
        bound = np.sqrt(6.0 / (4 * 3 + 5))
        assert w1.shape == (len(GRANULARITIES) * 5 * 4 * 3,)
        assert np.array_equal(w1, w2)
        assert np.all(np.abs(w1) <= bound)

    def test_one_draw_equals_five_bank_draws(self):
        # the flat vector keeps the bits of drawing each bank in turn
        rng = np.random.default_rng(42)
        a = np.sqrt(6.0 / (4 * 3 + 5))
        per_bank = [rng.uniform(-a, a, size=(5, 12)) for _ in GRANULARITIES]
        banks = Model.initialize(ModelConfig(k=5, ell=3, d=4,
                                             init_seed=42)).banks
        for g, M in zip(GRANULARITIES, per_bank):
            assert banks[g].tobytes() == M.tobytes()
