"""Outside-in tracing for the benchmark.

The tracer wraps public functions of convlink's layers from the outside:
every module that binds a wrapped function by name gets the wrapper, so
calls are seen whichever way the program reaches them.  Each call
becomes a span (name, start, end, parent, run id) kept in memory; the
spans are written out only when the run ends.  A layer's self time is
its span's duration minus the time its child spans cover.

Nothing here changes what the program computes: a wrapper calls the
original and returns its result unchanged.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (owner path, attribute, span name).  The owner is "module" or
# "module:Class"; the span name is "<layer>.<function>".
TARGETS = (
    ("convlink.kb", "generate_queries", "kb.generate_queries"),
    ("convlink.kb", "candidates_for", "kb.candidates_for"),
    ("convlink.kb", "save_kb", "kb.save_kb"),
    ("convlink.kb", "load_kb", "kb.load_kb"),
    ("convlink.kb:KnowledgeBase", "ingest", "kb.ingest"),
    ("convlink.sparse", "features_q", "sparse.features_q"),
    ("convlink.sparse", "features_e", "sparse.features_e"),
    ("convlink.sparse:FeatureVocabulary", "index_of", "sparse.index_of"),
    ("convlink.sparse:TfIdfModel", "cosine", "sparse.tfidf_cosine"),
    ("convlink.sparse:TfIdfModel", "from_kb", "sparse.tfidf_from_kb"),
    ("convlink.embeddings", "load_word2vec", "embeddings.load_word2vec"),
    ("convlink.embeddings:EmbeddingTable", "lookup_sequence",
     "embeddings.lookup_sequence"),
    ("convlink.textproc", "load_corpus", "textproc.load_corpus"),
    ("convlink.textproc", "extract_views", "textproc.extract_views"),
    ("convlink.textproc", "extract_target_views",
     "textproc.extract_target_views"),
    ("convlink.cnn", "embed_views", "cnn.embed_views"),
    ("convlink.cnn", "forward_from_matrices", "cnn.forward_from_matrices"),
    ("convlink.cnn", "backward", "cnn.backward"),
    ("convlink.model", "prepare_mention", "model.prepare_mention"),
    ("convlink.model:TargetCache", "get", "model.target_cache_get"),
    ("convlink.model", "score_pairs", "model.score_pairs"),
    ("convlink.model", "loss_and_grad", "model.loss_and_grad"),
    ("convlink.model:AdadeltaState", "apply", "model.adadelta_apply"),
    ("convlink.model", "infer", "model.infer"),
    ("convlink.model", "train", "model.train"),
    ("convlink.model", "save_model", "model.save_model"),
    ("convlink.model", "load_model", "model.load_model"),
    ("convlink.evalharness", "evaluate", "evalharness.evaluate"),
    ("convlink.evalharness", "run_ablation", "evalharness.run_ablation"),
)

PHASE = "phase"


def _resolve(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    module = sys.modules.get(module_name)
    if module is None or not class_name:
        return module
    return getattr(module, class_name, None)


class Tracer:
    """Records spans of wrapped calls; see ``install`` and ``phase``."""

    def __init__(self):
        self.names = []          # span name per name id
        self.runs = []           # run label per run id
        self.spans = []          # (name id, start, end, parent, run id)
        self.counts = defaultdict(float)   # (run id, key) -> count
        self.absent = []         # span names whose target no longer exists
        self._stack = []
        self._run = -1
        self._patches = []       # (namespace, attribute, original)
        self._phase_id = self._name_id(PHASE)

    # -- spans --------------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _call(self, name_id, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name_id, start, end, parent, self._run)

    def phase(self, label, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a new run labelled ``label``.
        Calls made outside a phase are not recorded."""
        self.runs.append(label)
        self._run = len(self.runs) - 1
        return self._call(self._phase_id, fn, args, kwargs)

    def count(self, key, amount=1):
        self.counts[(self._run, key)] += amount

    # -- patching -----------------------------------------------------------

    def _wrapper(self, name, fn, on_result):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            result = tracer._call(name_id, fn, args, kwargs)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def install(self, hooks=None):
        """Wrap every target that exists; record the rest as absent."""
        hooks = hooks or {}
        for owner_path, attr, name in TARGETS:
            owner = _resolve(owner_path)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent.append(name)
                continue
            on_result = hooks.get(name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(name, raw.__func__,
                                                    on_result))
                self._patch(owner, attr, raw, wrapped)
                continue
            wrapped = self._wrapper(name, raw, on_result)
            if isinstance(owner, type):
                self._patch(owner, attr, raw, wrapped)
                continue
            # A module function: replace it in every convlink module that
            # imported it by name, so calls through either path are seen.
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] != "convlink" or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patch(module, key, raw, wrapped)

    def _patch(self, namespace, attr, original, replacement):
        setattr(namespace, attr, replacement)
        self._patches.append((namespace, attr, original))

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def summarize(self):
        """Per run: {span name: [calls, total s, self s]} plus the root
        span's duration and the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_run = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        roots = {}
        for i, (name_id, start, end, parent, run) in enumerate(self.spans):
            dur = end - start
            if parent < 0:
                roots[run] = (dur, child_time[i])
                continue
            row = per_run[run][self.names[name_id]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child_time[i]
        return per_run, roots

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run\tname\tstart\tend\tparent\n")
            for name_id, start, end, parent, run in self.spans:
                fh.write("%s\t%s\t%.9f\t%.9f\t%d\n" % (
                    self.runs[run], self.names[name_id], start, end, parent))
