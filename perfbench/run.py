#!/usr/bin/env python3
"""convlink benchmark: one workload per process.

    python3 perfbench/run.py --workload ablation-grid --seed 1 --seconds 60 --trace 0

Run from the repository root.  The workload's inputs are generated from
``--seed`` with ``convlink.synthetic`` before anything is timed.  Then
the benchmark repeats cycles of set-up (``ingest-kb`` and loading the KB,
embeddings and both corpus splits), a train phase and a link phase for
``--seconds`` seconds, checking every output.  The first cycle is a
warm-up.  Of the rest it reports the median set-up time and the train
and link throughput over all of them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs
untraced cycles for half the time, then traced cycles that wrap each
layer's public functions (see ``tracing.py``), and prints per-layer
metrics for the setup, train and link phases.  ``--workload all`` runs
every workload, each in its own process.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine, input shape, per-cycle timings, prediction hash) goes to
``.bench_results/`` under the repository root.  The exit code is 0 only
when every output check passed.
"""

import os

# One BLAS thread, set before numpy loads: the program is single-threaded
# apart from BLAS, and one thread keeps timings steady on a shared host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_results")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))

NULL = "<NULL>"


@dataclass(frozen=True)
class Workload:
    why: str
    spec: dict               # SyntheticSpec fields apart from the seed
    k: int
    epochs: int
    configs: tuple           # trained in the train phase; more than one = grid
    expect: dict             # shape field -> (low, high), checked every run


WORKLOADS = {
    "paper-like": Workload(
        why="d=300, k=150, 9 candidates, 450-token documents: CNN forward "
            "and backward carry the time",
        spec=dict(n_topics=8, vocab_per_topic=500, n_entities=64,
                  mention_ambiguity=8, embedding_dim=300,
                  filler_vocab_size=2000, filler_min=200, filler_max=230,
                  body_tokens=300, n_train_docs=8, n_test_docs=48),
        k=150, epochs=2, configs=("full",),
        expect=dict(candidates_per_mention=(8.9, 9.1),
                    mean_doc_tokens=(435.0, 470.0))),
    "ablation-grid": Workload(
        why="run_ablation over five configs: weight-independent "
            "featurization is redone per config, and masked paths run",
        spec=dict(n_train_docs=120, n_test_docs=120),
        k=48, epochs=2,
        configs=("full", "sparse-only", "cnn-only",
                 "pair:src_document*tgt_document",
                 "pair:src_mention*tgt_title"),
        expect=dict(candidates_per_mention=(2.9, 3.1),
                    mean_doc_tokens=(100.0, 112.0))),
}


class BenchError(Exception):
    """An output check failed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(np, seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 only prints it
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(np),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

class Bench:
    def __init__(self, workload, seed, workdir):
        from convlink import synthetic
        self.w = workload
        self.seed = seed
        spec = synthetic.SyntheticSpec(seed=seed, **workload.spec)
        self.paths = synthetic.generate(spec, os.path.join(workdir, "data")).paths
        self.kb_path = os.path.join(workdir, "kb.bin")
        self.model_path = os.path.join(workdir, "model.bin")
        self.pred_path = os.path.join(workdir, "predictions.jsonl")
        self.attempted = 0
        self.failed = 0
        self.grid = None          # (EvalReport, trained models) of the last grid

    # -- phases ---------------------------------------------------------------

    def _cli(self, *argv):
        from convlink import cli
        self.attempted += 1
        if cli.run(["-q"] + list(argv)) != 0:
            self.failed += 1
            raise BenchError("convlink %s exited non-zero" % argv[0])

    def setup(self):
        from convlink import embeddings, kb, textproc
        p = self.paths
        self._cli("ingest-kb", "--articles", p["articles.jsonl"],
                  "--anchors", p["anchors.jsonl"], "--out", self.kb_path)
        self.kb = kb.load_kb(self.kb_path)
        self.table = embeddings.load_word2vec(p["embeddings.txt"])
        self.train_docs = textproc.load_corpus(p["train.jsonl"])
        self.test_docs = textproc.load_corpus(p["test.jsonl"])

    def _common(self, split):
        return ["--kb", self.kb_path, "--embeddings",
                self.paths["embeddings.txt"], "--corpus",
                self.paths[split + ".jsonl"]]

    def train(self):
        from convlink import evalharness
        from convlink.config import ModelConfig, toggles_from_name
        if len(self.w.configs) == 1:
            self._cli("train", *self._common("train"), "--out",
                      self.model_path, "--epochs", str(self.w.epochs),
                      "--k", str(self.w.k), "--seed", str(self.seed),
                      "--config", self.w.configs[0])
            return
        base = ModelConfig(d=self.table.dim, k=self.w.k, init_seed=self.seed)
        configs = [(c, toggles_from_name(c)) for c in self.w.configs]
        self.attempted += 1
        self.grid = evalharness.run_ablation(
            base, self.train_docs, self.test_docs, self.kb, self.table,
            configs, epochs=self.w.epochs, seed=self.seed)

    def link(self):
        self._cli("link", *self._common("test"), "--model", self.model_path,
                  "--out", self.pred_path)

    def after_train(self):
        """Untimed: hand the grid's full model to the link phase."""
        from convlink import model
        if self.grid is not None:
            model.save_model(self.grid[1]["full"], self.model_path)

    # -- checks -----------------------------------------------------------------

    def check_outputs(self):
        """Validate the model file and the predictions; returns
        (predictions sha256, link accuracy, {config: accuracy})."""
        from convlink import evalharness, model
        model.load_model(self.model_path)
        with open(self.pred_path, "rb") as fh:
            raw = fh.read()
        wanted = {(d.doc_id, m.start, m.end)
                  for d in self.test_docs for m in d.mentions}
        records = []
        seen = set()
        lines = raw.decode("utf-8", errors="replace").splitlines()
        for line in lines:
            try:
                rec = json.loads(line)
                key = (rec["doc_id"], rec["span"][0], rec["span"][1])
                prob = rec["prob"]
                ok = (key in wanted and key not in seen
                      and (rec["entity"] == NULL
                           or rec["entity"] in self.kb.entities)
                      and isinstance(prob, float) and 0.0 <= prob <= 1.0)
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
            if ok:
                seen.add(key)
                records.append(rec)
        missing = len(wanted) - len(records)
        invalid = len(lines) - len(records)
        self.attempted += len(wanted)
        # A mention without a valid record failed; stray or invalid lines
        # fail the link command itself.
        self.failed += missing + (1 if invalid else 0)
        if missing or invalid:
            raise BenchError("%d of %d mentions lack a valid prediction; %d "
                             "invalid lines" % (missing, len(wanted), invalid))
        acc = evalharness.score_predictions(self.test_docs, records).accuracy
        if self.grid is None:
            accs = {self.w.configs[0]: acc}
        else:
            report = self.grid[0]
            accs = {row.config_name: row.accuracy for row in report.rows}
            if sorted(accs) != sorted(self.w.configs):
                raise BenchError("grid returned configs %s" % sorted(accs))
            if accs["full"] != acc:
                raise BenchError("grid full accuracy %.4f != linked %.4f"
                                 % (accs["full"], acc))
        return hashlib.sha256(raw).hexdigest(), acc, accs

    def shape(self):
        """Measured shape of the generated inputs."""
        from convlink.kb import candidates_for, generate_queries
        from convlink.textproc import extract_views
        docs = self.train_docs + self.test_docs
        n = queries = cands = 0
        for doc in docs:
            for m in doc.mentions:
                qs = generate_queries(extract_views(doc.tokens, m).mention_tokens)
                n += 1
                queries += len(qs)
                cands += len(candidates_for(self.kb, qs).candidates)
        return {
            "train_mentions": sum(len(d.mentions) for d in self.train_docs),
            "test_mentions": sum(len(d.mentions) for d in self.test_docs),
            "candidates_per_mention": cands / n,
            "queries_per_mention": queries / n,
            "mean_doc_tokens": sum(len(d.tokens) for d in docs) / len(docs),
            "embedding_rows": len(self.table.vocab),
            "k": self.w.k,
            "d": self.table.dim,
            "entities": len(self.kb.entities),
        }


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def run_cycles(bench, seconds, tracer=None, warmup=False):
    """Set up, train, then link, repeated until another cycle would pass
    ``seconds`` (at least one cycle).  With a tracer every phase is
    traced.  With ``warmup`` the first cycle is marked as a warm-up and
    its timings are not reported.  Returns per-cycle records."""
    cycles = []
    start = time.perf_counter()

    def phase(label, fn):
        return timed(fn) if tracer is None else timed(tracer.phase, label, fn)

    while True:
        setup_s = phase("setup", bench.setup)
        train_s = phase("train", bench.train)
        bench.after_train()
        link_s = phase("link", bench.link)
        digest, acc, accs = bench.check_outputs()
        cycles.append({"traced": tracer is not None,
                       "warmup": warmup and not cycles, "setup_s": setup_s,
                       "train_s": train_s, "link_s": link_s,
                       "predictions_sha256": digest, "link_accuracy": acc,
                       "config_accuracy": accs})
        if digest != cycles[0]["predictions_sha256"]:
            raise BenchError("predictions differ between cycles of one seed")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(cycles) > seconds and not (
                warmup and len(cycles) < 2):
            return cycles


def end_to_end(bench, cycles):
    w = bench.w
    labeled = sum(1 for d in bench.train_docs for m in d.mentions
                  if m.gold_entity is not None)
    mention_epochs = labeled * w.epochs * len(w.configs)
    test_mentions = sum(len(d.mentions) for d in bench.test_docs)
    accs = cycles[0]["config_accuracy"]
    cycles = [c for c in cycles if not c["warmup"]]
    # Throughput is the work of all measured cycles over their summed
    # time.  On a shared 2-core VM each core switched between a fast state
    # and one 1.2-1.7x slower, for spells of a second to minutes; over
    # two sets of ten seeds this sum spread less between runs than the
    # fastest or the median cycle did.
    n = len(cycles)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in cycles),
        "train_mentions_per_s":
            n * mention_epochs / sum(c["train_s"] for c in cycles),
        "link_mentions_per_s":
            n * test_mentions / sum(c["link_s"] for c in cycles),
        "link_accuracy": cycles[0]["link_accuracy"],
        "config_accuracy_mean": sum(accs.values()) / len(accs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run
# ---------------------------------------------------------------------------

def _prepare_hook(tracer, args, prep):
    model = args[0]
    tracer.count("queries", len(prep.queries))
    tracer.count("candidates", len(prep.cand.candidates))
    if prep.mention.gold_entity is not None:
        tracer.count("labeled")
        tracer.count("gold_in_candidates", prep.gold_index is not None)
    if model.config.toggles.use_sparse:
        tracer.count("entity_pairs",
                     sum(1 for e in prep.cand.candidates if e != NULL))


def _loss_hook(tracer, args, out):
    tracer.count("skipped" if out is None else "steps")


HOOKS = {"model.prepare_mention": _prepare_hook,
         "model.loss_and_grad": _loss_hook}


def _phase_stats(tracer):
    """Aggregate spans and counts by phase label, per run of that phase."""
    per_run, roots = tracer.summarize()
    phases = {}
    for run, label in enumerate(tracer.runs):
        ph = phases.setdefault(label, {"runs": 0, "wall": 0.0, "covered": 0.0,
                                       "spans": defaultdict(lambda: [0, 0.0, 0.0]),
                                       "counts": defaultdict(float)})
        ph["runs"] += 1
        wall, covered = roots[run]
        ph["wall"] += wall
        ph["covered"] += covered
        for name, (calls, total, self_s) in per_run[run].items():
            row = ph["spans"][name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
    for (run, key), value in tracer.counts.items():
        phases[tracer.runs[run]]["counts"][key] += value
    for ph in phases.values():    # report everything per run of the phase
        n = ph["runs"]
        ph["wall"] /= n
        ph["covered"] /= n
        for row in ph["spans"].values():
            row[:] = [row[0] / n, row[1] / n, row[2] / n]
        for key in ph["counts"]:
            ph["counts"][key] /= n
    return phases


def _ratio(num, den):
    return num / den if den else 0.0


def _phase_metrics(ph, untraced_s):
    def calls(name):
        return ph["spans"].get(name, [0, 0.0, 0.0])[0]

    def total_ms(name):
        return ph["spans"].get(name, [0, 0.0, 0.0])[1] * 1e3

    def self_ms(name):
        return ph["spans"].get(name, [0, 0.0, 0.0])[2] * 1e3

    c = ph["counts"]
    mentions = calls("model.prepare_mention")
    scorings = calls("model.score_pairs")
    steps = c["steps"]
    gets = calls("model.target_cache_get")
    return {
        "phase_s": ph["wall"],
        "uncovered_s": ph["wall"] - ph["covered"],
        "trace_overhead_s": ph["wall"] - untraced_s,
        "kb.generate_queries_self_ms_per_mention":
            _ratio(self_ms("kb.generate_queries"), mentions),
        "kb.queries_per_mention": _ratio(c["queries"], mentions),
        "kb.candidates_for_self_ms_per_mention":
            _ratio(self_ms("kb.candidates_for"), mentions),
        "kb.candidates_per_mention": _ratio(c["candidates"], mentions),
        "kb.gold_recall": _ratio(c["gold_in_candidates"], c["labeled"]),
        "sparse.features_q_self_ms_per_mention":
            _ratio(self_ms("sparse.features_q"), mentions),
        "sparse.features_e_self_ms_per_mention":
            _ratio(self_ms("sparse.features_e"), mentions),
        "sparse.index_of_calls_per_mention":
            _ratio(calls("sparse.index_of"), mentions),
        "sparse.index_of_ms_per_mention":
            _ratio(total_ms("sparse.index_of"), mentions),
        "sparse.tfidf_calls_per_pair":
            _ratio(calls("sparse.tfidf_cosine"), c["entity_pairs"]),
        "sparse.tfidf_self_ms_per_mention":
            _ratio(self_ms("sparse.tfidf_cosine"), mentions),
        "embeddings.lookup_sequence_calls_per_mention":
            _ratio(calls("embeddings.lookup_sequence"), mentions),
        "embeddings.lookup_sequence_ms_per_mention":
            _ratio(total_ms("embeddings.lookup_sequence"), mentions),
        "embeddings.load_word2vec_s":
            total_ms("embeddings.load_word2vec") / 1e3,
        "cnn.embed_views_ms_per_mention":
            _ratio(total_ms("cnn.embed_views"), mentions),
        "cnn.forward_calls_per_scoring":
            _ratio(calls("cnn.forward_from_matrices"), scorings),
        "cnn.forward_self_ms_per_scoring":
            _ratio(self_ms("cnn.forward_from_matrices"), scorings),
        "cnn.backward_calls_per_step": _ratio(calls("cnn.backward"), steps),
        "cnn.backward_self_ms_per_step": _ratio(self_ms("cnn.backward"), steps),
        "model.prepare_mention_self_ms_per_mention":
            _ratio(self_ms("model.prepare_mention"), mentions),
        "model.target_cache_get_calls": gets,
        "model.target_cache_hit_ratio":
            _ratio(gets - calls("textproc.extract_target_views"), gets),
        "model.score_pairs_self_ms_per_scoring":
            _ratio(self_ms("model.score_pairs"), scorings),
        "model.loss_and_grad_self_ms_per_step":
            _ratio(self_ms("model.loss_and_grad"), steps),
        "model.adadelta_apply_ms_per_step":
            _ratio(total_ms("model.adadelta_apply"), steps),
        "model.infer_self_ms_per_call":
            _ratio(self_ms("model.infer"), calls("model.infer")),
        "model.skipped_examples": c["skipped"],
        "evalharness.evaluate_s_per_config":
            _ratio(total_ms("evalharness.evaluate") / 1e3,
                   calls("evalharness.evaluate")),
        "evalharness.prepare_share":
            _ratio(total_ms("model.prepare_mention") / 1e3, ph["wall"]),
        "io.load_corpus_s": total_ms("textproc.load_corpus") / 1e3,
        "io.load_kb_s": total_ms("kb.load_kb") / 1e3,
        "io.load_model_s": total_ms("model.load_model") / 1e3,
        "io.save_model_s": total_ms("model.save_model") / 1e3,
    }


def _setup_metrics(ph):
    def total(name):
        return ph["spans"].get(name, [0, 0.0, 0.0])[1]
    return {
        "phase_s": ph["wall"],
        "kb.ingest_s": total("kb.ingest"),
        "io.save_kb_s": total("kb.save_kb"),
        "io.load_kb_s": total("kb.load_kb"),
        "embeddings.load_word2vec_s": total("embeddings.load_word2vec"),
        "io.load_corpus_s": total("textproc.load_corpus"),
    }


# Metrics that are zero by construction outside one phase.
TRAIN_ONLY = {"cnn.backward_calls_per_step", "cnn.backward_self_ms_per_step",
              "model.loss_and_grad_self_ms_per_step",
              "model.adadelta_apply_ms_per_step", "model.skipped_examples",
              "evalharness.evaluate_s_per_config", "io.save_model_s"}
LINK_ONLY = {"io.load_model_s"}


def _labelled(label, values):
    skip = LINK_ONLY if label == "train" else TRAIN_ONLY
    return {"%s.%s" % (label, k): v for k, v in values.items() if k not in skip}


def layer_metrics(tracer, untraced):
    phases = _phase_stats(tracer)
    out = {"setup." + k: v for k, v in _setup_metrics(phases["setup"]).items()}
    for label in ("train", "link"):
        out.update(_labelled(label, _phase_metrics(phases[label],
                                                   untraced[label])))
    return out


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def run_one(args):
    try:
        import numpy as np
        import convlink
    except ImportError as exc:
        print("error: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(convlink.__file__).startswith(src):
        print("error: convlink was imported from %s, not from %s"
              % (convlink.__file__, src), file=sys.stderr)
        return 2
    from tracing import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    w = WORKLOADS[args.workload]
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    workdir = os.path.join(WORK, "%s-%d" % (stem, os.getpid()))
    os.makedirs(RESULTS, exist_ok=True)
    record = {"workload": args.workload, "why": w.why, "seconds": args.seconds,
              "trace": args.trace, "env": environment(np, args.seed)}
    bench = None
    correct = False
    unexpected = 0
    metrics = {}
    try:
        bench = Bench(w, args.seed, workdir)
        bench.setup()
        shape = bench.shape()
        record["shape"] = shape
        for key, (lo, hi) in w.expect.items():
            if not lo <= shape[key] <= hi:
                raise BenchError("seed %d gives %s=%.3f outside [%g, %g]"
                                 % (args.seed, key, shape[key], lo, hi))
        if args.trace:
            # Untraced cycles for half the time are the baseline for the
            # tracing overhead; traced cycles fill the rest.
            start = time.perf_counter()
            cycles = run_cycles(bench, args.seconds / 2, warmup=True)
            untraced = {p: statistics.fmean(c[p + "_s"] for c in cycles
                                            if not c["warmup"])
                        for p in ("train", "link")}
            tracer = Tracer()
            tracer.install(HOOKS)
            try:
                cycles += run_cycles(bench, args.seconds - (
                    time.perf_counter() - start), tracer)
            finally:
                tracer.uninstall()
            values = layer_metrics(tracer, untraced)
            tracer.write_spans(os.path.join(RESULTS, stem + ".spans.tsv"))
            record["absent_spans"] = tracer.absent
        else:
            cycles = run_cycles(bench, args.seconds, warmup=True)
            values = end_to_end(bench, cycles)
        record["cycles"] = cycles
        if set(values) != set(units):
            raise BenchError("metrics %s are not declared in BENCHMARK.json"
                             % sorted(set(values) ^ set(units)))
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        correct = True
    except BenchError as exc:
        record["error"] = str(exc)
        print("check failed: %s" % exc, file=sys.stderr)
    except Exception as exc:   # the program raised: one failed operation
        traceback.print_exc()
        record["error"] = repr(exc)
        unexpected = 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = (bench.failed if bench else 0) + unexpected
    attempted = max(1, failed, bench.attempted if bench else 0)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("workload %s seed %d: %d cycles, %d operations, %d failed"
          % (args.workload, args.seed, len(record.get("cycles", [])),
             attempted, failed))
    for name, m in metrics.items():
        print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    if record.get("absent_spans"):
        print("  absent spans (reported as 0): %s"
              % ", ".join(record["absent_spans"]))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args):
    """Every workload, each in a fresh process; non-zero if any fails."""
    worst = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
