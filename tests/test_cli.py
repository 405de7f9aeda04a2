import contextlib
import copy
import filecmp
import io
import json
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings
import zlib
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink import cli, kb as kb_mod, model as model_mod
from convlink.binfile import read_framed, write_framed
from convlink.cli import run
from convlink.config import (FIXED_SETTINGS, GRANULARITIES, FeatureToggles,
                             ModelConfig)
from convlink.kb import KB_MAGIC, KB_VERSION, NULL_ENTITY
from convlink.synthetic import SyntheticSpec
from convlink.textproc import load_corpus
from helpers import (MALFORMED_KB_PAYLOADS, MALFORMED_MODEL_HEADERS,
                     MALFORMED_SPARSE_BLOCKS, rewrite_model_header,
                     rewrite_sparse_block, with_key, write_embeddings)


GEN_ARGS = ["--n-topics", "2", "--vocab-per-topic", "12", "--n-entities", "4",
            "--ambiguity", "2", "--train-docs", "24", "--test-docs", "8",
            "--misleading-fraction", "0.4", "--muddy-fraction", "0.25",
            "--embedding-dim", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    assert run(["-q", "gen-synthetic", "--out", data, "--seed", "7"]
               + GEN_ARGS) == 0
    kb = str(root / "kb.bin")
    assert run(["-q", "ingest-kb",
                "--articles", os.path.join(data, "articles.jsonl"),
                "--anchors", os.path.join(data, "anchors.jsonl"),
                "--out", kb]) == 0
    return {"root": root, "data": data, "kb": kb,
            "embeddings": os.path.join(data, "embeddings.txt"),
            "train": os.path.join(data, "train.jsonl"),
            "test": os.path.join(data, "test.jsonl")}


@pytest.fixture(scope="module")
def untrained_model(workspace):
    path = str(workspace["root"] / "untrained.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), path)
    return path


def test_gen_synthetic_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(["-q", "gen-synthetic", "--out", a, "--seed", "3"] + GEN_ARGS) == 0
    assert run(["-q", "gen-synthetic", "--out", b, "--seed", "3"] + GEN_ARGS) == 0
    for name in sorted(os.listdir(a)):
        assert filecmp.cmp(os.path.join(a, name), os.path.join(b, name),
                           shallow=False), name


def test_gen_synthetic_defaults_are_the_spec_defaults(tmp_path):
    out = str(tmp_path / "data")
    assert run(["-q", "gen-synthetic", "--out", out, "--seed", "7",
                "--train-docs", "24", "--test-docs", "8"]) == 0
    with open(os.path.join(out, "metadata.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["spec"]
    assert spec == asdict(SyntheticSpec(seed=7, n_train_docs=24,
                                        n_test_docs=8))


def test_unknown_flag_is_usage_error(capsys):
    assert run(["train", "--definitely-not-a-flag"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--kb", "a", "--embeddings", "b", "--corpus", "c"],
    ["train", "--kb", "a", "--embeddings", "b", "--corpus", "c",
     "--out", "m", "--epochs", "nope"],
    ["train", "--kb", "a", "--embeddings", "b", "--corpus", "c",
     "--out", "x", "--bogus"],
    ["link", "--kb", "a", "--embeddings", "b", "--corpus", "c",
     "--model", "m", "--out", "o", "--extra", "3"],
])
def test_subcommand_parse_error_shows_its_usage(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "usage: convlink %s " % argv[0] in err
    assert "{ingest-kb," not in err


def test_missing_file_is_data_error(workspace, capsys):
    code = run(["-q", "evaluate", "--model", "/nonexistent/model.bin",
                "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"]])
    assert code == 2


@pytest.mark.parametrize("kind", sorted(MALFORMED_KB_PAYLOADS))
def test_malformed_kb_payload_is_data_error(workspace, tmp_path, capsys, kind):
    kb = str(tmp_path / "kb.bin")
    write_framed(kb, KB_MAGIC, KB_VERSION, MALFORMED_KB_PAYLOADS[kind])
    code = run(["-q", "train", "--kb", kb,
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"],
                "--out", str(tmp_path / "model.bin")])
    assert code == 2
    assert "%s: malformed KB payload" % kb in capsys.readouterr().err


# What the error line must also say, for some MALFORMED_MODEL_HEADERS
MODEL_HEADER_MESSAGES = {
    "toggles-unknown-keys": '"Ik"',
    "context-window-3": "context_window must be 10, got 3",
    "doc-cap-40": "doc_cap must be 2000, got 40",
    "top-k-31": "top_k must be 30, got 31",
    "hash-capacity-2**70": "hash_capacity must be 1048576, got %d" % 2 ** 70,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_MODEL_HEADERS))
def test_malformed_model_header_is_data_error(workspace, tmp_path, capsys,
                                              kind):
    model_path = str(tmp_path / "model.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), model_path)
    rewrite_model_header(model_path, MALFORMED_MODEL_HEADERS[kind])
    code = run(["-q", "link", "--model", model_path, "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--out", str(tmp_path / "preds.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "%s: malformed model payload" % model_path in err
    assert MODEL_HEADER_MESSAGES.get(kind, "") in err


@pytest.mark.parametrize("kind", sorted(MALFORMED_SPARSE_BLOCKS))
def test_malformed_sparse_block_is_data_error(workspace, untrained_model,
                                              tmp_path, capsys, kind):
    model_path = str(tmp_path / "model.bin")
    shutil.copyfile(untrained_model, model_path)
    rewrite_sparse_block(model_path, MALFORMED_SPARSE_BLOCKS[kind])
    code = run(["-q", "link", "--model", model_path, "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--out", str(tmp_path / "preds.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: %s: malformed model payload: sparse indices must ascend "
        "strictly below 1048576\n" % model_path)


def run_ok_or_data_error(argv, prefix, context=None):
    """Run the CLI and check that it exits 0 in silence, or 2 with one
    line ``error: <prefix>...``; returns the exit code.  ``context``
    goes into the failure message."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 2 and len(lines) == 1
        and lines[0].startswith("error: %s" % prefix)), (context, code, lines)
    return code


def header_paths(node, prefix=()):
    """The path of every key in a JSON object such as a model header,
    nested ones included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from header_paths(value, prefix + (key,))


HEADER_PATHS = sorted(header_paths({"config": ModelConfig().to_dict(),
                                    "n_sparse": 0}))

# None deletes the key; the rest are zero, negative, positive, past a
# signed 64-bit integer, or of the wrong JSON type
HEADER_VALUE = st.one_of(
    st.none(), st.integers(-2 ** 70, 0), st.integers(1, 2 ** 63 - 1),
    st.integers(2 ** 63, 2 ** 70),
    st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.booleans(), max_size=7),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@given(value=HEADER_VALUE)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
def test_link_reports_any_bad_model_header_value_as_data_error(
        workspace, untrained_model, value):
    root = workspace["root"]
    model_path = str(root / "property-model.bin")
    for path in HEADER_PATHS:
        shutil.copyfile(untrained_model, model_path)
        rewrite_model_header(model_path, lambda h: with_key(h, path, value))
        code = run_ok_or_data_error(
            ["-q", "link", "--kb", workspace["kb"],
             "--embeddings", workspace["embeddings"],
             "--corpus", workspace["test"], "--model", model_path,
             "--out", str(root / "property-preds.jsonl")],
            model_path + ": ", path)
        # a fixed preparation setting loads only at its fixed value
        if path[-1] in FIXED_SETTINGS and value != FIXED_SETTINGS[path[-1]]:
            assert code == 2, (path, value)


DELETE = object()

# DELETE removes the key and a tuple (name,) moves its value to the key
# name; the rest replace the value with one of a wrong JSON type or shape
KB_VALUE = st.one_of(
    st.just(DELETE), st.tuples(st.one_of(st.just(NULL_ENTITY),
                                         st.text(max_size=3))),
    st.none(), st.booleans(), st.integers(-2, 2),
    st.integers(2 ** 63, 2 ** 70), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.one_of(
        st.none(), st.integers(-1, 2), st.text(max_size=2)), max_size=2))


@given(value=KB_VALUE)
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
def test_link_reports_any_bad_kb_payload_value_as_data_error(
        workspace, untrained_model, value):
    root = workspace["root"]
    _, payload = read_framed(workspace["kb"], KB_MAGIC, (KB_VERSION,))
    valid = json.loads(zlib.decompress(payload))
    kb_path = str(root / "property-kb.bin")
    for path in sorted(header_paths(valid)):
        data = copy.deepcopy(valid)
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is DELETE or type(value) is tuple:
            moved = node.pop(path[-1])
        if type(value) is tuple:
            node[value[0]] = moved
        elif value is not DELETE:
            node[path[-1]] = value
        write_framed(kb_path, KB_MAGIC, KB_VERSION,
                     zlib.compress(json.dumps(data).encode("utf-8")))
        run_ok_or_data_error(
            ["-q", "link", "--kb", kb_path,
             "--embeddings", workspace["embeddings"],
             "--corpus", workspace["test"], "--model", untrained_model,
             "--out", str(root / "property-preds.jsonl")],
            kb_path + ": ", path)


def train_with_component(workspace, tmp_path, lineno, value):
    """Run ``train`` on a copy of the embeddings whose line ``lineno``
    has ``value`` as its first component; returns (exit code, path)."""
    with open(workspace["embeddings"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    fields = lines[lineno - 1].split()
    lines[lineno - 1] = " ".join([fields[0], value] + fields[2:])
    embeddings = str(tmp_path / "embeddings.txt")
    with open(embeddings, "w", encoding="utf-8",
              errors="surrogateescape") as fh:
        fh.write("\n".join(lines) + "\n")
    code = run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", embeddings, "--corpus", workspace["train"],
                "--out", str(tmp_path / "model.bin")])
    return code, embeddings


def test_non_finite_embedding_is_data_error(workspace, tmp_path, capsys):
    code, embeddings = train_with_component(workspace, tmp_path, 2, "nan")
    assert code == 2
    assert ("%s:2: non-finite vector component" % embeddings
            in capsys.readouterr().err)


def test_non_numeric_embedding_is_data_error(workspace, tmp_path, capsys):
    code, embeddings = train_with_component(workspace, tmp_path, 3, "0.5x")
    assert code == 2
    assert ("%s:3: non-numeric vector component" % embeddings
            in capsys.readouterr().err)


def test_embedding_component_beyond_limit_is_data_error(workspace, tmp_path,
                                                        capsys):
    # 1e200 once overflowed the topic norms of link and trained a model
    clean = str(tmp_path / "clean.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", clean,
                "--epochs", "1", "--k", "4"]) == 0
    with open(workspace["embeddings"], encoding="utf-8") as fh:
        lineno = next(i for i, line in enumerate(fh, 1)
                      if line.split()[0] == "fill0")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, embeddings = train_with_component(workspace, tmp_path, lineno,
                                                "1e200")
        link_code = run(["-q", "link", "--kb", workspace["kb"],
                         "--embeddings", embeddings,
                         "--corpus", workspace["test"], "--model", clean,
                         "--out", str(tmp_path / "preds.jsonl")])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code == link_code == 2
    assert capsys.readouterr().err == 2 * (
        "error: %s:%d: vector component beyond 1e+10 in magnitude\n"
        % (embeddings, lineno))


@pytest.mark.parametrize("version", [1, 2])
def test_old_model_version_is_data_error(workspace, tmp_path, capsys,
                                         version):
    # retraining is the only upgrade path for older model files
    model_path = str(tmp_path / "model.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), model_path)
    _, payload = read_framed(model_path, model_mod.MODEL_MAGIC,
                             (model_mod.MODEL_VERSION,))
    write_framed(model_path, model_mod.MODEL_MAGIC, version, payload)
    code = run(["-q", "link", "--model", model_path, "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--out", str(tmp_path / "preds.jsonl")])
    assert code == 2
    assert ("error: %s: unsupported format version %d" % (model_path, version)
            in capsys.readouterr().err)


# KB source records that ingest-kb rejects: (file, line 2 of that file)
MALFORMED_KB_SOURCES = {
    "article-array": ("articles", "[1, 2]"),
    "article-bad-json": ("articles", '{"id": "E9", "title": "T"'),
    "article-missing-body": ("articles", '{"id": "E9", "title": "T"}'),
    "article-title-number": ("articles",
                             '{"id": "E9", "title": 5, "body": ""}'),
    "article-title-blank": ("articles",
                            '{"id": "E9", "title": " ", "body": ""}'),
    "anchor-entity-number": ("anchors",
                             '{"anchor_text": "x", "entity_id": 3}'),
    "anchor-missing-text": ("anchors", '{"entity_id": "E1"}'),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_KB_SOURCES))
def test_malformed_kb_source_is_data_error(tmp_path, capsys, kind):
    bad_file, bad_line = MALFORMED_KB_SOURCES[kind]
    lines = {"articles": '{"id": "E1", "title": "T1", "body": "b"}',
             "anchors": '{"anchor_text": "t", "entity_id": "E1"}'}
    paths = {}
    for name, first in lines.items():
        paths[name] = str(tmp_path / (name + ".jsonl"))
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(first + "\n")
            if name == bad_file:
                fh.write(bad_line + "\n")
    code = run(["-q", "ingest-kb", "--articles", paths["articles"],
                "--anchors", paths["anchors"],
                "--out", str(tmp_path / "kb.bin")])
    assert code == 2
    assert "error: %s:2: " % paths[bad_file] in capsys.readouterr().err


def test_duplicate_article_id_names_file_and_line(tmp_path, capsys):
    articles = str(tmp_path / "articles.jsonl")
    anchors = str(tmp_path / "anchors.jsonl")
    with open(articles, "w", encoding="utf-8") as fh:
        fh.write('{"id": "E1", "title": "T1", "body": "b"}\n'
                 '{"id": "E1", "title": "T2", "body": "c"}\n')
    with open(anchors, "w", encoding="utf-8") as fh:
        fh.write('{"anchor_text": "t", "entity_id": "E1"}\n')
    code = run(["-q", "ingest-kb", "--articles", articles,
                "--anchors", anchors, "--out", str(tmp_path / "kb.bin")])
    assert code == 2
    assert ("error: %s:2: duplicate entity id 'E1'" % articles
            in capsys.readouterr().err)


def test_null_article_id_names_file_and_line(tmp_path, capsys):
    # the reserved id once ingested and then failed train as
    # "candidates must be deduplicated", naming no file
    articles = str(tmp_path / "articles.jsonl")
    anchors = str(tmp_path / "anchors.jsonl")
    with open(articles, "w", encoding="utf-8") as fh:
        fh.write('{"id": "E1", "title": "T1", "body": "b"}\n'
                 '{"id": "<NULL>", "title": "T2", "body": "c"}\n')
    with open(anchors, "w", encoding="utf-8") as fh:
        fh.write('{"anchor_text": "t", "entity_id": "E1"}\n')
    out = tmp_path / "kb.bin"
    code = run(["-q", "ingest-kb", "--articles", articles,
                "--anchors", anchors, "--out", str(out)])
    assert code == 2 and not out.exists()
    assert ("error: %s:2: reserved entity id '<NULL>'" % articles
            in capsys.readouterr().err)


# Corpus records that load_corpus rejects, each on line 2
MALFORMED_CORPORA = {
    "record-array": '["d", ["a"]]',
    "doc-id-number": '{"doc_id": 5, "tokens": ["a"]}',
    "tokens-string": '{"doc_id": "d", "tokens": "abc", "mentions": []}',
    "token-empty": '{"doc_id": "d", "tokens": ["a", ""]}',
    "token-whitespace": '{"doc_id": "d", "tokens": ["a", " \\t"]}',
    "token-surface-whitespace": ('{"doc_id": "d", "tokens": '
                                 '[{"surface": "\\u00a0", "pos": "NN"}]}'),
    "token-surface-inner-whitespace": ('{"doc_id": "d", "tokens": '
                                       '["New York"]}'),
    "token-surface-edge-whitespace": '{"doc_id": "d", "tokens": ["   xs"]}',
    "token-surface-number": '{"doc_id": "d", "tokens": [{"surface": 7}]}',
    "token-pos-list": ('{"doc_id": "d", "tokens": '
                       '[{"surface": "a", "pos": ["NNP"]}]}'),
    "token-ner-number": ('{"doc_id": "d", "tokens": '
                         '[{"surface": "a", "ner": 7}]}'),
    "token-pos-whitespace": ('{"doc_id": "d", "tokens": '
                             '[{"surface": "a", "pos": "\\n"}]}'),
    "token-ner-whitespace": ('{"doc_id": "d", "tokens": '
                             '[{"surface": "a", "ner": " \\u3000"}]}'),
    "not-utf8": '{"doc_id": "d\udcff", "tokens": ["a"]}',
    "mention-not-object": ('{"doc_id": "d", "tokens": ["a"], '
                           '"mentions": [[0, 1]]}'),
    "span-floats": ('{"doc_id": "d", "tokens": ["a", "b"], '
                    '"mentions": [{"start": 0.7, "end": 1.9}]}'),
    "span-bool": ('{"doc_id": "d", "tokens": ["a", "b"], '
                  '"mentions": [{"start": false, "end": 1}]}'),
    "span-out-of-range": ('{"doc_id": "d", "tokens": ["a", "b", "c"], '
                          '"mentions": [{"start": 2, "end": 7}]}'),
    "span-empty": ('{"doc_id": "d", "tokens": ["a", "b"], '
                   '"mentions": [{"start": 1, "end": 1}]}'),
    "gold-number": ('{"doc_id": "d", "tokens": ["a"], '
                    '"mentions": [{"start": 0, "end": 1, "gold_entity": 3}]}'),
    # a misspelt key once loaded as an unlabeled mention
    "mention-unknown-key": ('{"doc_id": "d", "tokens": ["a"], '
                            '"mentions": [{"start": 0, "end": 1, '
                            '"gold": "E1"}]}'),
    "document-unknown-key": ('{"doc_id": "d", "tokens": ["a"], '
                             '"mention": []}'),
    "token-unknown-key": ('{"doc_id": "d", "tokens": '
                          '[{"surface": "a", "tag": "NN"}]}'),
    "deeply-nested": "[" * 100000,
    "integer-too-long": ('{"doc_id": "d", "tokens": ["a"], "mentions": '
                         '[{"start": %s, "end": 1}]}' % ("1" * 5000)),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_CORPORA))
def test_malformed_corpus_is_data_error(workspace, tmp_path, capsys, kind):
    corpus = str(tmp_path / "corpus.jsonl")
    # surrogateescape writes "\udcff" as the lone byte 0xff
    with open(corpus, "w", encoding="utf-8", errors="surrogateescape") as fh:
        fh.write('{"doc_id": "ok", "tokens": ["a"], "mentions": []}\n')
        fh.write(MALFORMED_CORPORA[kind] + "\n")
    code = run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"], "--corpus", corpus,
                "--out", str(tmp_path / "model.bin"), "--epochs", "0",
                "--k", "4"])
    assert code == 2
    assert "error: %s:2: " % corpus in capsys.readouterr().err


@pytest.mark.parametrize("tag", ['["NNP"]', "7"])
def test_mention_token_tag_of_wrong_type_is_data_error(workspace, tmp_path,
                                                       capsys, tag):
    # a list tag used to reach the mention-surface memo and fail to hash
    model = str(tmp_path / "model.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", model,
                "--epochs", "0", "--k", "4"]) == 0
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"doc_id": "ok", "tokens": ["a"], "mentions": []}\n'
        '{"doc_id": "d", "tokens": ["the", {"surface": "x", "pos": %s}], '
        '"mentions": [{"start": 1, "end": 2}]}\n' % tag, encoding="utf-8")
    code = run(["-q", "link", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", str(corpus), "--model", model,
                "--out", str(tmp_path / "preds.jsonl")])
    assert code == 2
    assert ("error: %s:2: token pos must be a string or null, got %s\n"
            % (corpus, tag)) == capsys.readouterr().err


# A value of the wrong JSON type, or an empty or whitespace string
JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.lists(st.just("a"), max_size=2),
    st.dictionaries(st.just("surface"), st.integers(), max_size=1),
    st.text(alphabet=" \t\n\u00a0\u3000", max_size=3))


@given(position=st.sampled_from(["token", "surface", "pos", "ner", "start",
                                 "end", "doc_id"]),
       value=JSON_VALUE)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_link_reports_any_bad_corpus_value_as_data_error(
        workspace, untrained_model, position, value):
    # the value replaces one field of a record whose one mention covers
    # the tagged token; a whitespace-only mention once crashed scoring
    root = workspace["root"]
    token = {"surface": "Floyd", "pos": "NNP", "ner": "ORG"}
    mention = {"start": 1, "end": 2}
    record = {"doc_id": "d", "tokens": ["the", token, "band"],
              "mentions": [mention]}
    if position == "token":
        record["tokens"][1] = value
    elif position in token:
        token[position] = value
    elif position in mention:
        mention[position] = value
    else:
        record[position] = value
    corpus = str(root / "property.jsonl")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write('{"doc_id": "ok", "tokens": ["a"], "mentions": []}\n'
                 + json.dumps(record) + "\n")
    run_ok_or_data_error(
        ["-q", "link", "--kb", workspace["kb"],
         "--embeddings", workspace["embeddings"],
         "--corpus", corpus, "--model", untrained_model,
         "--out", str(root / "property-preds.jsonl")], corpus + ":2: ")


def test_embeddings_not_utf8_is_data_error(workspace, tmp_path, capsys):
    code, embeddings = train_with_component(workspace, tmp_path, 3,
                                            "0.5\udcff")
    assert code == 2
    assert ("error: %s:3: not valid UTF-8" % embeddings
            in capsys.readouterr().err)


def test_evaluate_requires_model_or_predictions(workspace):
    assert run(["-q", "evaluate", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"]]) == 1


@pytest.mark.parametrize("extra", [["--model", "model.bin"],
                                   ["--config", "full"]])
def test_evaluate_predictions_rejects_model_flags(workspace, tmp_path,
                                                  capsys, extra):
    preds = str(tmp_path / "preds.jsonl")
    with open(preds, "w", encoding="utf-8") as fh:
        fh.write('{"doc_id": "x", "span": [0, 1], "entity": "y"}\n')
    code = run(["-q", "evaluate", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"], "--predictions", preds] + extra)
    assert code == 1
    err = capsys.readouterr().err
    assert "--predictions" in err and extra[0] in err


@pytest.mark.parametrize("command", [
    ["link", "--out", "preds.jsonl"], ["evaluate"],
    ["evaluate", "--config", "sparse-only"], ["inspect-filters"]],
    ids=["link", "evaluate", "evaluate-sparse-only", "inspect-filters"])
def test_model_embedding_width_mismatch_is_data_error(workspace, tmp_path,
                                                      capsys, monkeypatch,
                                                      command):
    model_path = str(tmp_path / "model.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), model_path)
    narrow = write_embeddings(str(tmp_path / "narrow.txt"),
                              {"the": [0.5] * 6, "clubs": [-0.5] * 6})
    args = ["-q", command[0], "--model", model_path, "--embeddings", narrow,
            "--corpus", workspace["test"]] + command[1:]
    if command[0] == "inspect-filters":
        args += ["--filter-row", "0"]
    else:
        args += ["--kb", workspace["kb"]]
    monkeypatch.chdir(tmp_path)
    assert run(args) == 2
    err = capsys.readouterr().err
    assert narrow in err and model_path in err


def test_train_epochs_zero_equals_initialized_model(workspace, tmp_path):
    out = str(tmp_path / "zero.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", out,
                "--epochs", "0", "--seed", "11",
                "--k", "4"]) == 0
    reference = model_mod.Model.initialize(ModelConfig(
        d=8, k=4, ell=5, init_seed=11, toggles=FeatureToggles()))
    ref_path = str(tmp_path / "ref.bin")
    model_mod.save_model(reference, ref_path)
    assert filecmp.cmp(out, ref_path, shallow=False)


def convlink_stderr(argv):
    """What ``convlink`` run in a process of its own writes to stderr,
    where its own logging set-up decides what reaches it."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "convlink"] + argv,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


def test_train_logs_mean_p_gold_per_epoch(workspace, tmp_path):
    out = str(tmp_path / "model.bin")
    argv = ["train", "--kb", workspace["kb"],
            "--embeddings", workspace["embeddings"],
            "--corpus", workspace["train"], "--out", out,
            "--epochs", "2", "--seed", "0", "--k", "4"]
    *epochs, summary, wrote = convlink_stderr(argv).splitlines()
    rows = [re.fullmatch(r"epoch (\d): mean_loss=(\S+) mean_p_gold=(\S+) "
                         r"gold_recall=\S+ skipped=\d+", message)
            for message in epochs]
    assert [row and row.group(1) for row in rows] == ["0", "1"]
    for row in rows:
        loss, p_gold = float(row.group(2)), float(row.group(3))
        # the mean of exp(-loss) is at least exp(-mean loss) (Jensen)
        assert 0.0 < p_gold <= 1.0 and p_gold >= math.exp(-loss) - 1e-4
    n = len(list(model_mod.labeled_mentions(load_corpus(workspace["train"]))))
    assert n > 0 and re.fullmatch(
        r"trained on %d mentions \(\d+\.\d\d queries/mention, "
        r"oov \d\.\d{3}\)" % n, summary)
    assert wrote == "wrote model to %s" % out
    assert convlink_stderr(["-q"] + argv) == ""


def test_pipeline_train_link_evaluate(workspace, tmp_path):
    model_path = str(tmp_path / "model.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", model_path,
                "--epochs", "1", "--seed", "0", "--k", "4"]) == 0

    preds = str(tmp_path / "preds.jsonl")
    assert run(["-q", "link", "--model", model_path, "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"], "--out", preds]) == 0
    with open(preds, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert records
    for rec in records:
        assert set(rec) == {"doc_id", "span", "entity", "prob"}
        assert 0.0 <= rec["prob"] <= 1.0

    report_path = str(tmp_path / "report.jsonl")
    assert run(["-q", "evaluate", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"], "--predictions", preds,
                "--report", report_path]) == 0
    with open(report_path, "r", encoding="utf-8") as fh:
        row = json.loads(fh.readline())
    assert row["n_mentions"] == 8

    # model-driven evaluation agrees with scoring the link output
    assert run(["-q", "evaluate", "--model", model_path,
                "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--report", str(tmp_path / "model_report.jsonl")]) == 0
    with open(str(tmp_path / "model_report.jsonl"), encoding="utf-8") as fh:
        model_row = json.loads(fh.readline())
    assert model_row["accuracy"] == pytest.approx(row["accuracy"])


def test_evaluate_config_subsets(workspace, tmp_path):
    model_path = str(tmp_path / "model.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", model_path,
                "--epochs", "1", "--seed", "0", "--k", "4",
                "--config", "cnn-only"]) == 0
    report_path = str(tmp_path / "report.jsonl")
    assert run(["-q", "evaluate", "--model", model_path,
                "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--config", "cnn-only",
                "--config", "pair:src_document*tgt_document",
                "--report", report_path]) == 0
    with open(report_path, encoding="utf-8") as fh:
        names = [json.loads(line)["config_name"] for line in fh
                 if "config_name" in json.loads(line)]
    assert names == ["cnn-only", "pair:src_document*tgt_document"]


def test_inspect_filters_cli(workspace, tmp_path, capsys):
    model_path = str(tmp_path / "model.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", model_path,
                "--epochs", "0", "--seed", "0", "--k", "4"]) == 0
    assert run(["-q", "inspect-filters", "--model", model_path,
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"],
                "--granularity", "src_document",
                "--filter-row", "0", "--top-n", "3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert 1 <= len(out) <= 3
    for line in out:
        act, ngram = line.split("\t")
        assert float(act) > 0
        assert len(ngram.split()) == 5


def test_filter_row_out_of_range_is_data_error(workspace, tmp_path, capsys):
    model_path = str(tmp_path / "model.bin")
    run(["-q", "train", "--kb", workspace["kb"],
         "--embeddings", workspace["embeddings"],
         "--corpus", workspace["train"], "--out", model_path,
         "--epochs", "0", "--seed", "0", "--k", "4"])
    for row in ("999", "-1"):
        code = run(["-q", "inspect-filters", "--model", model_path,
                    "--embeddings", workspace["embeddings"],
                    "--corpus", workspace["train"],
                    "--granularity", "src_document",
                    "--filter-row", row, "--top-n", "3"])
        assert code == 2, row
        assert ("error: filter row %s is outside [0, 4)" % row
                in capsys.readouterr().err)


def test_negative_top_n_is_data_error(workspace, tmp_path, capsys):
    model_path = str(tmp_path / "model.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), model_path)
    code = run(["-q", "inspect-filters", "--model", model_path,
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"],
                "--filter-row", "0", "--top-n", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: top-n must be at least 0, got -1" in captured.err


def test_negative_epochs_is_data_error(workspace, tmp_path, capsys,
                                      monkeypatch):
    calls = {}

    def spy(module, name):
        real = getattr(module, name)
        calls[name] = []

        def wrapper(*args):
            calls[name].append(args)
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    spy(model_mod, "prepare_mention")
    spy(cli, "load_word2vec")
    spy(cli, "load_corpus")
    out = tmp_path / "model.bin"
    code = run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", str(out),
                "--epochs", "-1", "--k", "4"])
    assert code == 2
    assert "error: epochs must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert calls == {"prepare_mention": [], "load_word2vec": [],
                     "load_corpus": []}


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_config_is_data_error_before_loading(workspace, tmp_path,
                                                     capsys, monkeypatch,
                                                     command):
    calls = []
    for name in ("load_word2vec", "load_corpus"):
        monkeypatch.setattr(cli, name,
                            lambda *args, name=name: calls.append(name))
    bad = "pair:src_doc*tgt_doc"
    common = ["--kb", workspace["kb"], "--embeddings", workspace["embeddings"],
              "--corpus", workspace["train"]]
    if command == "train":
        argv = ["train"] + common + ["--out", str(tmp_path / "model.bin"),
                                     "--config", bad]
    else:       # the model file is never read
        argv = ["evaluate"] + common + ["--model", str(tmp_path / "none.bin"),
                                        "--config", "cnn-only",
                                        "--config", bad]
    assert run(["-q"] + argv) == 2
    err = capsys.readouterr().err
    assert "error: unknown feature configuration %r" % bad in err
    for granularity in GRANULARITIES:
        assert granularity in err
    assert calls == []
    assert not (tmp_path / "model.bin").exists()


def test_removed_train_flags_are_usage_errors(workspace, tmp_path):
    # train sets only --k, --epochs, --seed and --config (plus paths)
    out = tmp_path / "model.bin"
    for flag in (["--rho", "0.9"], ["--eps", "1e-8"], ["--ell", "5"],
                 ["--context-window", "10"], ["--doc-cap", "2000"],
                 ["--top-k", "30"], ["--hash-capacity", "1048576"]):
        code = run(["-q", "train", "--kb", workspace["kb"],
                    "--embeddings", workspace["embeddings"],
                    "--corpus", workspace["train"], "--out", str(out),
                    "--epochs", "0", "--k", "4"] + flag)
        assert code == 1, flag
        assert not out.exists(), flag


def test_unlabeled_mentions_are_linked_not_scored(workspace, tmp_path):
    with open(workspace["test"], encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh][:2]
    docs[0]["mentions"] = docs[0]["mentions"][:1]
    docs[1]["mentions"] = [dict(docs[1]["mentions"][0], gold_entity=None)]
    corpus = str(tmp_path / "corpus.jsonl")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(d) + "\n" for d in docs))
    model_path = str(tmp_path / "model.bin")
    model_mod.save_model(model_mod.Model.initialize(
        ModelConfig(d=8, k=4, ell=5)), model_path)
    common = ["--model", model_path, "--kb", workspace["kb"],
              "--embeddings", workspace["embeddings"], "--corpus", corpus]
    preds = str(tmp_path / "preds.jsonl")
    assert run(["-q", "link", "--out", preds] + common) == 0
    with open(preds, encoding="utf-8") as fh:
        linked = [json.loads(line)["doc_id"] for line in fh]
    assert linked == [docs[0]["doc_id"], docs[1]["doc_id"]]
    report = str(tmp_path / "report.jsonl")
    assert run(["-q", "evaluate", "--report", report] + common) == 0
    with open(report, encoding="utf-8") as fh:
        row = json.loads(fh.readline())
    assert row["n_mentions"] == 1


def test_link_memoizes_target_vectors(workspace, tmp_path, monkeypatch):
    model_path = str(tmp_path / "model.bin")
    assert run(["-q", "train", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["train"], "--out", model_path,
                "--epochs", "1", "--seed", "0", "--k", "4"]) == 0
    memos, preps = [], []
    real = model_mod.infer

    def spy(m, prep, memo=None):
        memos.append(memo)
        preps.append(prep)
        return real(m, prep, memo)

    monkeypatch.setattr(model_mod, "infer", spy)
    assert run(["-q", "link", "--model", model_path, "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"],
                "--out", str(tmp_path / "preds.jsonl")]) == 0
    assert len(memos) == 8
    memo = memos[0]
    assert memo and all(m is memo for m in memos)     # one memo per call
    # every candidate entity's title and document views, each once
    views = {view for prep in preps for tgt in prep.target_views
             if tgt is not None for view in tgt.values()}
    assert set(memo) == views
    assert {tuple(sorted(tgt)) for prep in preps for tgt in prep.target_views
            if tgt is not None} == {("tgt_document", "tgt_title")}
    for enc in memo.values():
        assert enc.view is None and enc.topic.shape == (4,)


# Prediction files that are not link output, each with its line number
MALFORMED_PREDICTIONS = {
    "bad-json": ('{"doc_id": "x", "span": [0, 1], "entity": "y"', 1),
    "not-object": ("[1, 2]", 1),
    "missing-span": ('{"doc_id": "x", "entity": "y"}', 1),
    "span-null": ('{"doc_id": "x", "span": null, "entity": "y"}', 1),
    "span-not-integers": ('{"doc_id": "x", "span": ["0", 1], "entity": "y"}',
                          1),
    "span-one-integer": ('{"doc_id": "x", "span": [0, 1], "entity": "y"}\n'
                         '{"doc_id": "x", "span": [3], "entity": "y"}', 2),
    "doc-id-list": ('{"doc_id": ["x"], "span": [0, 1], "entity": "y"}', 1),
    "deeply-nested": ("[" * 100000, 1),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_PREDICTIONS))
def test_malformed_predictions_are_data_error(workspace, tmp_path, capsys,
                                             kind):
    text, lineno = MALFORMED_PREDICTIONS[kind]
    preds = str(tmp_path / "preds.jsonl")
    with open(preds, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    code = run(["-q", "evaluate", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"], "--predictions", preds])
    assert code == 2
    assert "error: %s:%d: " % (preds, lineno) in capsys.readouterr().err


# Any JSON value, nested a few levels deep
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@given(key=st.sampled_from(["doc_id", "span", "entity", "prob", "extra"]),
       value=st.one_of(st.just(DELETE), ANY_JSON),
       tail=st.one_of(st.none(), st.text(max_size=8)))
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_evaluate_reports_any_bad_prediction_as_data_error(workspace, key,
                                                           value, tail):
    # the value replaces one key of a correct prediction; the tail, when
    # there is one, is written as is on the lines after it
    doc = load_corpus(workspace["test"])[0]
    mention = doc.mentions[0]
    record = {"doc_id": doc.doc_id, "span": [mention.start, mention.end],
              "entity": mention.gold_entity, "prob": 1.0}
    if value is DELETE:
        record.pop(key, None)
    else:
        record[key] = value
    root = workspace["root"]
    preds = str(root / "property-preds.jsonl")
    with open(preds, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n" + (tail or ""))
    run_ok_or_data_error(
        ["-q", "evaluate", "--kb", workspace["kb"],
         "--embeddings", workspace["embeddings"],
         "--corpus", workspace["test"], "--predictions", preds,
         "--report", str(root / "property-report.jsonl")], preds + ":")


KB_SOURCES = {"articles": ("id", "title", "body"),
              "anchors": ("anchor_text", "entity_id")}


def ingest_damaged(workspace, name, data):
    """Run ``ingest-kb`` on the workspace's KB sources with the ``name``
    one replaced by the bytes ``data``.  It must exit 0, warning at most
    of skipped anchors, and write a KB that loads, or exit 2 with one
    line ``error: <the damaged file>...``."""
    root = workspace["root"]
    paths = {n: os.path.join(workspace["data"], n + ".jsonl")
             for n in KB_SOURCES}
    paths[name] = str(root / ("damaged-%s.jsonl" % name))
    with open(paths[name], "wb") as fh:
        fh.write(data)
    out = root / "damaged-kb.bin"
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(["-q", "ingest-kb", "--articles", paths["articles"],
                    "--anchors", paths["anchors"], "--out", str(out)])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert all(line.startswith("skipped ") for line in lines), lines
        kb_mod.load_kb(str(out))
    else:
        assert code == 2 and len(lines) == 1 and lines[0].startswith(
            "error: %s:" % paths[name]), (code, lines)


@given(name=st.sampled_from(sorted(KB_SOURCES)), line=st.integers(0, 99),
       key=st.integers(0, 3), value=st.one_of(st.just(DELETE), ANY_JSON))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_ingest_kb_reports_any_bad_source_value_as_data_error(
        workspace, name, line, key, value):
    # the value replaces one key of one record, or a key no record has
    with open(os.path.join(workspace["data"], name + ".jsonl"),
              encoding="utf-8") as fh:
        records = [json.loads(text) for text in fh]
    rec = records[line % len(records)]
    keys = KB_SOURCES[name] + ("extra",)
    if value is DELETE:
        rec.pop(keys[key % len(keys)], None)
    else:
        rec[keys[key % len(keys)]] = value
    ingest_damaged(workspace, name, "".join(
        json.dumps(r) + "\n" for r in records).encode("utf-8"))


@given(name=st.sampled_from(sorted(KB_SOURCES)), at=st.integers(0, 2 ** 20),
       byte=st.one_of(st.none(), st.integers(0, 255)))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_ingest_kb_reports_any_byte_damage_as_data_error(workspace, name, at,
                                                         byte):
    # one byte overwritten, or the file cut short at it when ``byte`` is
    # None
    with open(os.path.join(workspace["data"], name + ".jsonl"), "rb") as fh:
        data = bytearray(fh.read())
    at %= len(data)
    if byte is None:
        del data[at:]
    else:
        data[at] = byte
    ingest_damaged(workspace, name, bytes(data))


@pytest.fixture(scope="module")
def weighted_model(workspace):
    """A model file whose cosine weights are 1.0 and whose sparse block
    holds three weights in [1, 2): flipping bit 62 of any of them makes
    an inf or a NaN."""
    path = str(workspace["root"] / "weighted.bin")
    m = model_mod.Model.initialize(ModelConfig(d=8, k=4, ell=5))
    m.w_dense[:] = 1.0
    m.w_sparse.update({3: 1.5, 70000: -1.25, 2 ** 20 - 1: 1.0})
    model_mod.save_model(m, path)
    return path


def flip_model_bit(model, path, region, word, bit):
    """Write to ``path`` the model file ``model`` with bit ``bit`` of its
    region's 64-bit word ``word`` (taken modulo the region's size)
    flipped and the checksum written anew.  Returns the flipped word as
    a float where it is a weight, else None; sparse entries are an index
    word, then a weight word."""
    _, payload = read_framed(model, model_mod.MODEL_MAGIC,
                             (model_mod.MODEL_VERSION,))
    (hlen,) = struct.unpack_from("<I", payload, 0)
    sparse_at = len(payload) - 3 * model_mod.SPARSE_ENTRY.itemsize
    lo, hi = {"header": (0, 4 + hlen), "theta": (4 + hlen, sparse_at),
              "sparse": (sparse_at, len(payload))}[region]
    at = (64 * word + bit) % (8 * (hi - lo))
    flipped = bytearray(payload)
    flipped[lo + at // 8] ^= 1 << at % 8
    write_framed(path, model_mod.MODEL_MAGIC, model_mod.MODEL_VERSION,
                 bytes(flipped))
    if region == "theta" or region == "sparse" and at // 64 % 2:
        return struct.unpack_from("<d", flipped, lo + at // 64 * 8)[0]
    return None


def link_argv(workspace, model):
    return ["-q", "link", "--kb", workspace["kb"],
            "--embeddings", workspace["embeddings"],
            "--corpus", workspace["test"], "--model", model,
            "--out", str(workspace["root"] / "property-preds.jsonl")]


@given(region=st.sampled_from(["header", "theta", "sparse"]),
       word=st.integers(0, 2 ** 16),
       bit=st.one_of(st.just(62), st.integers(0, 63)))
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
def test_link_reports_any_model_bit_flip_as_data_error(
        workspace, weighted_model, region, word, bit):
    path = str(workspace["root"] / "flipped-model.bin")
    w = flip_model_bit(weighted_model, path, region, word, bit)
    code = run_ok_or_data_error(link_argv(workspace, path), path + ": ")
    # a weight made NaN, infinite or too large never loads
    if w is not None and not abs(w) <= model_mod.WEIGHT_LIMIT:
        assert code == 2, (region, word, bit)


def test_link_rejects_a_bank_weight_flipped_to_1e307(workspace,
                                                      weighted_model):
    # the exponent's top bit turns a small bank weight into about -1e307,
    # which once loaded and overflowed the topic norms
    path = str(workspace["root"] / "flipped-bank.bin")
    w = flip_model_bit(weighted_model, path, "theta", 166, 62)
    assert math.isfinite(w) and abs(w) > 1e307
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(link_argv(workspace, path)) == 2
    assert err.getvalue() == \
        "error: %s: model weight beyond 1e+06 in magnitude\n" % path


def test_evaluate_predictions_leaves_unmeasured_fields_null(
        workspace, tmp_path, caplog):
    # a predictions file records no candidates, queries or embeddings
    preds = str(tmp_path / "preds.jsonl")
    with open(workspace["test"], encoding="utf-8") as src, \
            open(preds, "w", encoding="utf-8") as out:
        for line in src:
            doc = json.loads(line)
            for m in doc["mentions"]:
                out.write(json.dumps({"doc_id": doc["doc_id"],
                                      "span": [m["start"], m["end"]],
                                      "entity": m["gold_entity"]}) + "\n")
    report = str(tmp_path / "report.jsonl")
    caplog.set_level(logging.INFO, logger="convlink")
    assert run(["evaluate", "--kb", workspace["kb"],
                "--embeddings", workspace["embeddings"],
                "--corpus", workspace["test"], "--predictions", preds,
                "--report", report]) == 0
    with open(report, encoding="utf-8") as fh:
        row = json.loads(fh.read())
    assert row["accuracy"] == 1.0 and row["n_correct"] == row["n_mentions"] > 0
    for key in ("gold_recall", "n_gold_in_candidates",
                "mean_queries_per_mention", "oov_rate"):
        assert row[key] is None, key
    assert "predictions: accuracy=1.0000 gold_recall=n/a n=%d" % \
        row["n_mentions"] in caplog.messages


@pytest.mark.parametrize("script", ["fingerprint.py", "gradient_check.py",
                                    "run_synthetic_ablation.py"])
def test_script_runs_from_any_directory(tmp_path, script):
    # the scripts find src/ and tests/ themselves, without PYTHONPATH
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", script)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, path, "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
