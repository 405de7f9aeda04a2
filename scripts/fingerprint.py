#!/usr/bin/env python3
"""Print one sha256 per artefact of a fixed end-to-end run.

On a ``gen-synthetic --seed 1`` world (150 training and 60 test
documents) this trains full, sparse-only, cnn-only and
pair:src_document*tgt_document models (k 48, 3 epochs, seed 1), links
the test split with each, evaluates the full model under two configs,
inspects one filter row and runs the five-config ablation grid.  The
next line pins the corpus reader and the tokenizer: the test split
written back by ``save_corpus(load_corpus(...))``, then every KB body's
token surfaces in entity order.  The last two lines are a model at the
paper's width (d 300, k 150, 2 epochs, seed 1), trained on an
eight-document world that ``synthetic.generate`` writes, and its
predictions on that world's one test document: they pin the row store,
the fresh one each training view gathers from and the one per bank in
``cnn.Memo``.  All files go to a temporary directory.
Run it in two checkouts and diff the outputs to show that a change keeps
every bit.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

# One BLAS thread, set before numpy loads: the ``train d300 k150`` line
# moves with the thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from convlink.cli import run
from convlink.config import ModelConfig, toggles_from_name
from convlink.embeddings import load_word2vec
from convlink.evalharness import run_ablation
from convlink.kb import load_kb
from convlink.model import save_model
from convlink.synthetic import SyntheticSpec, generate
from convlink.textproc import load_corpus, save_corpus, tokenize

CONFIGS = ("full", "sparse-only", "cnn-only",
           "pair:src_document*tgt_document")
GRID = CONFIGS + ("pair:src_mention*tgt_title",)
TRAIN_FLAGS = ["--k", "48", "--epochs", "3", "--seed", "1"]


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli(*argv):
    """Run one subcommand quietly and return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(["-q"] + list(argv))
    if code != 0:
        sys.exit("convlink %s exited %d" % (argv[0], code))
    return out.getvalue()


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        data = path("data")
        cli("gen-synthetic", "--out", data, "--seed", "1",
            "--train-docs", "150", "--test-docs", "60")
        cli("ingest-kb", "--articles", os.path.join(data, "articles.jsonl"),
            "--anchors", os.path.join(data, "anchors.jsonl"),
            "--out", path("kb.bin"))
        inputs = ["--kb", path("kb.bin"),
                  "--embeddings", os.path.join(data, "embeddings.txt")]
        artefacts = [(name, sha(os.path.join(data, name)))
                     for name in sorted(os.listdir(data))]
        artefacts.append(("kb.bin", sha(path("kb.bin"))))
        for i, config in enumerate(CONFIGS):
            model, preds = path("model%d.bin" % i), path("link%d.jsonl" % i)
            cli("train", *inputs, "--corpus", os.path.join(data, "train.jsonl"),
                "--out", model, "--config", config, *TRAIN_FLAGS)
            cli("link", *inputs, "--corpus", os.path.join(data, "test.jsonl"),
                "--model", model, "--out", preds)
            artefacts += [("train %s" % config, sha(model)),
                          ("link %s" % config, sha(preds))]
        cli("evaluate", *inputs, "--corpus", os.path.join(data, "test.jsonl"),
            "--model", path("model0.bin"), "--config", "full",
            "--config", "cnn-only", "--report", path("eval.jsonl"))
        artefacts.append(("evaluate", sha(path("eval.jsonl"))))
        filters = cli("inspect-filters", "--model", path("model0.bin"),
                      "--embeddings", os.path.join(data, "embeddings.txt"),
                      "--corpus", os.path.join(data, "test.jsonl"),
                      "--filter-row", "3")
        artefacts.append(("inspect-filters",
                          hashlib.sha256(filters.encode()).hexdigest()))

        table = load_word2vec(os.path.join(data, "embeddings.txt"))
        report, trained = run_ablation(
            ModelConfig(d=table.dim, k=48, init_seed=1),
            load_corpus(os.path.join(data, "train.jsonl")),
            load_corpus(os.path.join(data, "test.jsonl")),
            load_kb(path("kb.bin")), table,
            [(name, toggles_from_name(name)) for name in GRID],
            epochs=3, seed=1)
        with open(path("ablation.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(report.to_jsonl())
        artefacts.append(("ablation report", sha(path("ablation.jsonl"))))
        for name in GRID:
            save_model(trained[name], path("grid.bin"))
            artefacts.append(("ablation %s" % name, sha(path("grid.bin"))))

        save_corpus(load_corpus(os.path.join(data, "test.jsonl")),
                    path("test.jsonl"))
        with open(path("test.jsonl"), "rb") as fh:
            tokens = hashlib.sha256(fh.read())
        kb = load_kb(path("kb.bin"))
        for eid in sorted(kb.entities):
            tokens.update(("\n%s\t%s" % (eid, " ".join(
                t.surface for t in tokenize(kb.body(eid))))).encode())
        artefacts.append(("tokens", tokens.hexdigest()))

        wide = path("wide")
        generate(SyntheticSpec(seed=1, embedding_dim=300, n_train_docs=8,
                               n_test_docs=1), wide)
        cli("ingest-kb", "--articles", os.path.join(wide, "articles.jsonl"),
            "--anchors", os.path.join(wide, "anchors.jsonl"),
            "--out", path("wide.bin"))
        cli("train", "--kb", path("wide.bin"),
            "--embeddings", os.path.join(wide, "embeddings.txt"),
            "--corpus", os.path.join(wide, "train.jsonl"),
            "--out", path("wide_model.bin"),
            "--k", "150", "--epochs", "2", "--seed", "1")
        artefacts.append(("train d300 k150", sha(path("wide_model.bin"))))
        cli("link", "--kb", path("wide.bin"),
            "--embeddings", os.path.join(wide, "embeddings.txt"),
            "--corpus", os.path.join(wide, "test.jsonl"),
            "--model", path("wide_model.bin"), "--out", path("wide.jsonl"))
        artefacts.append(("link d300 k150", sha(path("wide.jsonl"))))
    for name, digest in artefacts:
        print("%s  %s" % (digest, name))


if __name__ == "__main__":
    main()
