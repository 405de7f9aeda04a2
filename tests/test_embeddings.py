import numpy as np
import pytest

from convlink.embeddings import load_word2vec
from convlink.errors import DimensionError, FormatError


def write(tmp_path, text, name="vec.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_text_roundtrip(tmp_path):
    path = write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n")
    table = load_word2vec(path)
    assert table.dim == 3
    assert np.array_equal(table.vectors[table.row("a")], [1.0, 0.0, 0.0])
    assert np.array_equal(table.vectors[table.row("b")], [0.0, 1.0, 0.0])


def test_oov_is_all_zeros(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    assert table.row("zzz-not-present") == -1
    rows, mat = table.lookup_sequence(["zzz-not-present", "a", "qq"])
    assert rows.tolist() == [-1, 0, -1]
    assert np.array_equal(mat[[0, 2]], np.zeros((2, 3)))


def test_lowercase_fallback(tmp_path):
    table = load_word2vec(write(tmp_path, "2 2\nfloyd 1 2\nBand 3 4\n"))
    assert np.array_equal(table.vectors[table.row("Floyd")], [1.0, 2.0])
    # exact match wins over lowercasing
    assert np.array_equal(table.vectors[table.row("Band")], [3.0, 4.0])


def test_row_count_mismatch_rejected(tmp_path):
    path = write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\nc 0 0 1\n")
    with pytest.raises(FormatError):
        load_word2vec(path)
    path = write(tmp_path, "3 3\na 1 0 0\nb 0 1 0\n", name="short.txt")
    with pytest.raises(FormatError):
        load_word2vec(path)


def test_wrong_arity_names_line(tmp_path):
    path = write(tmp_path, "2 3\na 1 0 0\nb 0 1\n")
    with pytest.raises(FormatError) as err:
        load_word2vec(path)
    assert ":3" in str(err.value)


def test_malformed_header(tmp_path):
    with pytest.raises(FormatError):
        load_word2vec(write(tmp_path, "banana\na 1\n"))
    with pytest.raises(FormatError):
        load_word2vec(write(tmp_path, "", name="empty.txt"))


def test_zero_dim_rejected(tmp_path):
    with pytest.raises(DimensionError):
        load_word2vec(write(tmp_path, "1 0\na\n"))


def test_duplicate_tokens_keep_first(tmp_path):
    table = load_word2vec(write(tmp_path, "3 2\na 1 1\na 9 9\nb 2 2\n"))
    assert np.array_equal(table.vectors[table.row("a")], [1.0, 1.0])
    assert len(table.vocab) == 2


def test_lookup_sequence(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    rows, mat = table.lookup_sequence(["a", "a"])
    assert mat.shape == (2, 3)
    assert np.array_equal(mat[0], mat[1])
    assert rows.tolist() == [0, 0]
    rows, mat = table.lookup_sequence([])
    assert mat.shape == (0, 3) and rows.shape == (0,)
    rows, mixed = table.lookup_sequence(["a", "zzz", "B"])
    assert np.array_equal(mixed, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0]])
    # OOV is row -1; the lowercase fallback resolves to the row it hits
    assert rows.tolist() == [0, -1, 1]


def test_lookup_is_referentially_transparent(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    _, first = table.lookup_sequence(["a", "zzz"])
    expected = first.copy()
    first[:] = 7.0      # the caller's matrix is a copy, not the table
    for _ in range(5):
        assert np.array_equal(table.lookup_sequence(["a", "zzz"])[1],
                              expected)


def test_vectors_are_frozen(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    with pytest.raises(ValueError):
        table.vectors[0, 0] = 5.0


def test_oov_rate_exact(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    assert table.oov_rate(["a", "b", "x", "y"]) == 0.5
    assert table.oov_rate([]) == 0.0
    assert table.oov_rate(["A"]) == 0.0  # lowercase fallback counts as hit


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_text_non_finite_component_names_line(tmp_path, bad):
    path = write(tmp_path, "2 3\na 1 0 0\nb 0 %s 0\n" % bad)
    with pytest.raises(FormatError) as err:
        load_word2vec(path)
    assert str(err.value) == "%s:3: non-finite vector component" % path


@pytest.mark.parametrize("text,lineno,fields", [
    ("3 2\na 1 2 3\nb 1 2\nc 3 4\n", 2, 4),   # first line long
    ("3 2\na 1\nb 1 2\nc 3 4\n", 2, 2),       # first line short
    ("2 2\na 1 2 3\nb 4 5 6\n", 2, 4),        # every line long
    ("3 2\na 1 2\n\nb 1\nc 3 4\n", 4, 2),     # after a blank line
    ("3 2\na 1 2\nb 1 2 3 4\nc 3 4\n", 3, 5),
    ("2 2\na 1 2\nb\n", 3, 1),                # token alone
])
def test_field_count_names_first_bad_line(tmp_path, text, lineno, fields):
    path = write(tmp_path, text)
    with pytest.raises(FormatError) as err:
        load_word2vec(path)
    assert str(err.value) == (
        "%s:%d: expected token plus 2 values, got %d fields"
        % (path, lineno, fields))


@pytest.mark.parametrize("text,lineno", [
    ("2 2\na x 2\nb 1 2\n", 2),
    ("3 2\na 1 2\n\nb 1 2\nc 1 2,5\n", 5),
    ("2 2\na 1 2\nb 1 #2\n", 3),      # '#' is a value, not a comment
    ("2 2\na 1 2\nb 1 1_0\n", 3),
])
def test_non_numeric_component_names_line(tmp_path, text, lineno):
    path = write(tmp_path, text)
    with pytest.raises(FormatError) as err:
        load_word2vec(path)
    assert str(err.value) == "%s:%d: non-numeric vector component" % (
        path, lineno)


@pytest.mark.parametrize("lineno", [1, 3, 700])
def test_bytes_not_utf8_name_their_line(tmp_path, lineno):
    lines = [b"800 2"] + [b"w%d 1 2" % i for i in range(800)]
    lines[lineno - 1] += b" \xe9t\xe9"
    path = tmp_path / "vec.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(FormatError) as err:
        load_word2vec(path)
    assert str(err.value) == "%s:%d: not valid UTF-8" % (path, lineno)


def test_blank_lines_and_whitespace_skipped(tmp_path):
    table = load_word2vec(write(tmp_path,
                                "4 2\n\na\t1 2\n  \nb 3  4 \na 9 9\nc -1 .5"))
    assert table.vocab == {"a": 0, "b": 1, "c": 2}
    assert np.array_equal(table.vectors, [[1.0, 2.0], [3.0, 4.0],
                                          [-1.0, 0.5]])
    empty = load_word2vec(write(tmp_path, "0 3\n\n", name="none.txt"))
    assert empty.vectors.shape == (0, 3)
    rows, X = empty.lookup_sequence(["a", "b"])
    assert rows.tolist() == [-1, -1] and np.array_equal(X, np.zeros((2, 3)))
