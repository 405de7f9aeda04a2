import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convlink.embeddings import load_word2vec
from convlink.errors import ConvlinkError, DimensionError, FormatError


def lookup(table, tokens):
    """Each token's table row and ``lookup_sequence`` at those rows."""
    rows = np.array([table.row(t) for t in tokens], dtype=np.intp)
    return rows, table.lookup_sequence(rows)


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
    rows, mat = lookup(table, ["zzz-not-present", "a", "qq"])
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
    rows, mat = lookup(table, ["a", "a"])
    assert mat.shape == (2, 3)
    assert np.array_equal(mat[0], mat[1])
    assert rows.tolist() == [0, 0]
    rows, mat = lookup(table, [])
    assert mat.shape == (0, 3) and rows.shape == (0,)
    rows, mixed = lookup(table, ["a", "zzz", "B"])
    assert np.array_equal(mixed, [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                                  [0.0, 1.0, 0.0]])
    # OOV is row -1; the lowercase fallback resolves to the row it hits
    assert rows.tolist() == [0, -1, 1]


def test_lookup_is_referentially_transparent(tmp_path):
    table = load_word2vec(write(tmp_path, "2 3\na 1 0 0\nb 0 1 0\n"))
    _, first = lookup(table, ["a", "zzz"])
    expected = first.copy()
    first[:] = 7.0      # the caller's matrix is a copy, not the table
    for _ in range(5):
        assert np.array_equal(lookup(table, ["a", "zzz"])[1],
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
    rows, X = lookup(empty, ["a", "b"])
    assert rows.tolist() == [-1, -1] and np.array_equal(X, np.zeros((2, 3)))


# A token holds no whitespace and no line break
TOKEN = st.text(st.characters(blacklist_categories=("Z", "C")),
                min_size=1, max_size=6)
VALUE = st.floats(-10.0, 10.0).map(repr)
NON_NUMERIC = ["abc", "1e", "--1", "1.2.3", "0x10", "1,5", "1_0", "-", "."]
NON_FINITE = ["nan", "-NaN", "inf", "-Infinity", "1e999"]


@st.composite
def damaged_word2vec(draw):
    """The text of a word2vec file that is valid but for one damage:
    a truncated line, a value too many or too few, a non-numeric or
    non-finite value, or a header that does not match the rows."""
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(TOKEN)] + [draw(VALUE) for _ in range(dim)]
            for _ in range(n)]
    header = "%d %d" % (n, dim)
    row = rows[draw(st.integers(0, n - 1))]
    damage = draw(st.sampled_from(["truncated", "field-count", "non-numeric",
                                   "non-finite", "header"]))
    if damage == "truncated":
        # cut anywhere before the last value starts, even to nothing
        line = " ".join(row)
        row[:] = [line[:draw(st.integers(0, len(line) - len(row[-1]) - 1))]]
    elif damage == "field-count":
        if draw(st.booleans()):
            row.append(draw(VALUE))
        else:
            row.pop()
    elif damage in ("non-numeric", "non-finite"):
        row[draw(st.integers(1, dim))] = draw(st.sampled_from(
            NON_NUMERIC if damage == "non-numeric" else NON_FINITE))
    else:
        header = draw(st.sampled_from([
            "%d %d" % (n + draw(st.sampled_from([-n, -1, 1, 3])), dim),
            "%d %d" % (n, dim + draw(st.sampled_from([1, 2]))),
            "%d %d" % (n, max(1, dim - 1)) if dim > 1 else "%d 0" % n,
            "%d -%d" % (n, dim), "-%d %d" % (n, dim), "%d.0 %d" % (n, dim),
            "%d" % n, "%d %d %d" % (n, dim, dim), "x %d" % dim]))
    return "\n".join([header] + [" ".join(r) for r in rows]) + "\n"


@given(damaged_word2vec())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_any_damaged_file_is_a_data_error_naming_it(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "vec.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConvlinkError) as err:
        load_word2vec(path)
    assert str(path) in str(err.value)
