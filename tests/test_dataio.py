import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from divkit import dataio
from divkit.dataio import (
    EmbeddingSet,
    ResultRecord,
    RunSeed,
    canonical_json,
    config_hash,
    load_embeddings,
    save_embeddings,
    save_record,
    subsample,
)
from divkit.errors import (
    EmptySet,
    IoFailure,
    MalformedFile,
    NonFiniteEntry,
    SizeTooLarge,
)
from divkit.kernels import load_gram
from oracles import gram_from_values, read_record


def test_csv_load_basic(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,0\n0,1\n0,0\n")
    x = load_embeddings(str(p))
    assert (x.n, x.d) == (3, 2)
    assert np.array_equal(x.data, [[1, 0], [0, 1], [0, 0]])


def test_csv_header_and_blank_lines(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("# c0,c1\n1.5,2.5\n\n3.5,4.5\n")
    x = load_embeddings(str(p))
    assert (x.n, x.d) == (2, 2)


def test_csv_ragged_rows(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(MalformedFile):
        load_embeddings(str(p))


def test_csv_nan_rejected(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("1,2\n3,nan\n")
    with pytest.raises(NonFiniteEntry) as err:
        load_embeddings(str(p))
    assert err.value.row == 1 and err.value.col == 1


@pytest.mark.parametrize("fmt", ["csv", "binary"])
def test_load_scans_for_non_finite_entries_once(tmp_path, monkeypatch, fmt):
    p = tmp_path / f"x.{fmt}"
    save_embeddings(EmbeddingSet(np.arange(6.0).reshape(3, 2)), str(p), fmt)
    scans = []
    real = dataio._check_finite
    monkeypatch.setattr(dataio, "_check_finite",
                        lambda arr, where: scans.append(where) or real(arr, where))
    load_embeddings(str(p))
    assert scans == ["x." + fmt]


def test_binary_nan_names_the_path(tmp_path):
    p = tmp_path / "x.embd"
    dataio._write_container(str(p), dataio._MAGIC_EMBD, np.array([[1.0, 2.0], [np.inf, 4.0]]))
    with pytest.raises(NonFiniteEntry, match=f"row 1, column 0 in {p}$") as err:
        load_embeddings(str(p))
    assert err.value.row == 1 and err.value.col == 0


def test_csv_empty(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("# only a header\n")
    with pytest.raises(EmptySet):
        load_embeddings(str(p))


def test_binary_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    x = EmbeddingSet(rng.normal(size=(5, 4)))
    p = tmp_path / "x.embd"
    save_embeddings(x, str(p), "binary")
    y = load_embeddings(str(p))
    assert (y.n, y.d) == (5, 4)
    assert np.array_equal(x.data, y.data)


def test_binary_header_layout(tmp_path):
    x = EmbeddingSet(np.arange(20, dtype=float).reshape(5, 4))
    p = tmp_path / "x.embd"
    save_embeddings(x, str(p), "binary")
    blob = p.read_bytes()
    assert blob[:4] == b"EMBD"
    assert int.from_bytes(blob[4:8], "little") == 1
    assert int.from_bytes(blob[8:16], "little") == 5
    assert int.from_bytes(blob[16:24], "little") == 4
    assert len(blob) == 24 + 8 * 20


def test_binary_bad_magic(tmp_path):
    # a file names its own format, so only a Gram reader meets another magic
    p = tmp_path / "x.embd"
    save_embeddings(EmbeddingSet(np.ones((5, 1))), str(p), "binary")
    with pytest.raises(MalformedFile, match="bad magic, expected GRAM"):
        load_gram(str(p))
    p.write_bytes(b"EMBD" + bytes(8))  # a container header cut short
    with pytest.raises(MalformedFile, match="bad magic, expected EMBD"):
        load_embeddings(str(p))


def test_gram_container_is_not_embeddings(tmp_path):
    p = tmp_path / "k.gram"
    dataio.write_matrix_container(str(p), np.eye(3))
    with pytest.raises(MalformedFile, match=f"^{p}: a GRAM container holds a Gram matrix"):
        load_embeddings(str(p))


def test_only_regular_files_are_read(tmp_path):
    for read in (load_embeddings, load_gram):
        with pytest.raises(IoFailure, match=f"^{tmp_path}: not a regular file$"):
            read(str(tmp_path))
        with pytest.raises(IoFailure, match="No such file"):
            read(str(tmp_path / "missing.csv"))


def test_binary_truncated(tmp_path):
    x = EmbeddingSet(np.ones((3, 2)))
    p = tmp_path / "x.embd"
    save_embeddings(x, str(p), "binary")
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(MalformedFile):
        load_embeddings(str(p))


def test_csv_roundtrip_17_digits(tmp_path):
    rng = np.random.default_rng(7)
    x = EmbeddingSet(rng.normal(size=(8, 3)) * np.pi)
    p = tmp_path / "x.csv"
    save_embeddings(x, str(p), "csv")
    y = load_embeddings(str(p))
    assert np.array_equal(x.data, y.data)


def test_format_sniffing(tmp_path):
    x = EmbeddingSet(np.ones((2, 2)))
    pb = tmp_path / "b.dat"
    pc = tmp_path / "c.dat"
    save_embeddings(x, str(pb), "binary")
    save_embeddings(x, str(pc), "csv")
    assert load_embeddings(str(pb)).n == 2
    assert load_embeddings(str(pc)).n == 2


def test_embeddingset_rejects_nonfinite():
    with pytest.raises(NonFiniteEntry):
        EmbeddingSet(np.array([[1.0, np.inf]]))


def test_embeddingset_immutable():
    x = EmbeddingSet(np.ones((2, 2)))
    with pytest.raises(ValueError):
        x.data[0, 0] = 5.0


# -- the two CSV paths ------------------------------------------------------

def line_reader(path):
    """The reference outcome: the line reader, then the finiteness check."""
    with open(path, "rb") as fh:
        arr = dataio._read_csv_lines(fh.fileno(), path)
    dataio._check_finite(arr, path)
    return arr


def outcome(load, path):
    try:
        arr = load(path)
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)
    arr = getattr(arr, "data", arr)
    return "ok", arr.shape, arr.tobytes()


#: (name, file bytes, the class of the error both readers raise, or None)
MALFORMED = [
    ("ragged_row", b"1,2\n3,4,5\n", MalformedFile),
    ("unparsable_value", b"1,2\nx,4\n", MalformedFile),
    ("inline_hash", b"1,2\n3,4 # note\n", MalformedFile),
    ("inline_hash_on_ragged_line", b"1,2\n3,4 # note, more\n", MalformedFile),
    ("unparsable_before_ragged", b"1,2\n3,y\n5,6,7\n", MalformedFile),
    ("empty_file", b"", EmptySet),
    ("comments_only", b"# c0,c1\n  # more\n\n", EmptySet),
    ("bom", b"\xef\xbb\xbf1,2\n3,4\n", MalformedFile),
    ("trailing_comma", b"1,2,\n3,4,\n", MalformedFile),
    ("nul", b"1,2\x00\n3,4\n", MalformedFile),
    ("nan", b"1,2\n3,nan\n", NonFiniteEntry),
    ("inf", b"1,-inf\n3,4\n", NonFiniteEntry),
    ("underscore", b"1_0,2\n3,4\n", None),
    ("arabic_indic_digit", "\u0661,2\n3,4\n".encode(), None),
    ("cr_only_endings", b"1,2\r3,4\r", None),
    ("crlf_endings", b"1,2\r\n3,4\r\n", None),
    ("form_feed", b"1,2\x0c\n3\x0c,4\n", None),
    ("single_value", b"5\n", None),
    ("spaces_and_tabs", b" 1 ,\t2\t\n\t3,  4 \n", None),
    ("indented_comment", b"1,2\n   # c\n3,4\n", None),
    ("invalid_utf8", b"1,2\n\xff,3\n", MalformedFile),
    # numpy skips \x1c-\x1f around a value as whitespace; Python's float does not
    ("information_separator", b"1\x1c,2\n3,4\n", MalformedFile),
]


@pytest.mark.parametrize("name,blob,error", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_csv_corpus_matches_the_line_reader(tmp_path, name, blob, error):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(blob)
    got = outcome(load_embeddings, str(p))
    assert got == outcome(line_reader, str(p))
    assert got[0] == (error or "ok")


def test_csv_invalid_utf8_names_the_byte(tmp_path):
    p = tmp_path / "x.csv"
    blob = b"# header\n1,2\n3,\xe2\x82\n"  # a cut-off three-byte sequence
    p.write_bytes(blob)
    at = blob.index(b"\xe2")
    with pytest.raises(MalformedFile, match=rf"invalid UTF-8 at byte {at} \(line 3\)"):
        load_embeddings(str(p))


def test_csv_first_error_in_file_order_wins(tmp_path):
    p = tmp_path / "x.csv"
    p.write_bytes(b"1,2\n3\n\xff,4\n")
    with pytest.raises(MalformedFile, match="ragged row at line 2"):
        load_embeddings(str(p))


finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, 1e300, -1e300, 1e-300, -1e-300]),
)
padding = st.sampled_from(["", " ", "\t", " \t "])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), d=st.integers(1, 12))
def test_csv_fast_path_matches_the_line_reader_bitwise(tmp_path_factory, data, n, d):
    x = data.draw(arrays(np.float64, (n, d), elements=finite))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    extras = ["", "# a comment", "  \t# indented, comment", " \t "]
    lines = []
    for row in x:
        lines += data.draw(st.lists(st.sampled_from(extras), max_size=2))
        lines.append(",".join(data.draw(padding) + dataio.format_float(v) + data.draw(padding)
                              for v in row))
    p = tmp_path_factory.mktemp("csv") / "x.csv"
    p.write_bytes(newline.join(lines).encode() + newline.encode())
    with mock.patch.object(dataio, "_read_csv_lines", side_effect=AssertionError("fell back")):
        got = load_embeddings(str(p)).data
    assert got.tobytes() == x.tobytes()
    assert got.tobytes() == line_reader(str(p)).tobytes()


# -- memory of ingest (tracemalloc follows numpy's data buffers) ------------

def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_load_peak_is_at_most_twice_the_array(tmp_path):
    x = EmbeddingSet(np.random.default_rng(4).normal(size=(1000, 64)))
    p = tmp_path / "x.csv"
    save_embeddings(x, str(p), "csv")
    assert traced_peak(lambda: load_embeddings(str(p))) <= 2.0 * x.data.nbytes


def test_csv_write_streams_rows(tmp_path):
    x = EmbeddingSet(np.random.default_rng(7).normal(size=(2000, 64)) * 10.0 ** np.arange(-32, 32))
    p = tmp_path / "x.csv"
    assert traced_peak(lambda: save_embeddings(x, str(p), "csv")) <= 0.25 * x.data.nbytes
    # the text the writer produced when it joined every line first
    lines = ["# " + ",".join(f"c{j}" for j in range(x.d))]
    lines += [",".join(format(float(v), ".17g") for v in row) for row in x.data]
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


def gram_file(tmp_path, n=1024):
    """A GRAM container of an asymmetric matrix with entries outside [-1, 1]."""
    values = np.random.default_rng(5).uniform(-1.5, 1.5, size=(n, n))
    p = tmp_path / "k.gram"
    dataio.write_matrix_container(str(p), values)
    return str(p), values


def test_container_read_lands_in_one_array(tmp_path):
    path, values = gram_file(tmp_path)
    assert traced_peak(lambda: dataio.read_matrix_container(path)) <= 1.1 * values.nbytes
    assert np.array_equal(dataio.read_matrix_container(path), values)


def test_container_write_copies_nothing(tmp_path):
    values = np.random.default_rng(6).normal(size=(1024, 1024))
    p = tmp_path / "k.gram"
    peak = traced_peak(lambda: dataio.write_matrix_container(str(p), values))
    assert peak <= 0.1 * values.nbytes
    assert p.read_bytes()[24:] == values.astype("<f8").tobytes()


def test_load_gram_holds_one_buffer(tmp_path):
    path, values = gram_file(tmp_path)
    assert traced_peak(lambda: load_gram(path)) <= 1.2 * values.nbytes
    assert load_gram(path).values.tobytes() == gram_from_values(values).values.tobytes()


# -- records ----------------------------------------------------------------

def test_record_roundtrip_score(tmp_path):
    rec = ResultRecord("score", {"vendi": 3.5, "rke": 2.0, "n": 10}, "abc", 0.0)
    p = tmp_path / "r.json"
    save_record(rec, str(p))
    back = read_record(p)
    assert back == rec


def test_record_roundtrip_curve(tmp_path):
    payload = {
        "sizes": list(range(10)),
        "mean": [float(i) / 3 for i in range(10)],
        "nested": {"a": [1, 2.5, "x", None, True]},
    }
    rec = ResultRecord("curve", payload, "ffff", 12.0)
    p = tmp_path / "r.json"
    save_record(rec, str(p))
    assert read_record(p) == rec


def test_record_write_readonly_path(tmp_path):
    rec = ResultRecord("score", {}, "", 0.0)
    with pytest.raises(IoFailure):
        save_record(rec, str(tmp_path / "missing_dir" / "r.json"))


def test_canonical_json_sorted_and_17g():
    s = canonical_json({"b": 0.1, "a": 1})
    assert s == '{"a":1,"b":0.10000000000000001}'
    assert json.loads(s)["b"] == 0.1


def test_config_hash_key_order_invariant():
    assert config_hash({"a": 1, "b": [2.0, 3]}) == config_hash({"b": [2.0, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})


def test_record_jsonifies_numpy():
    rec = ResultRecord("score", {"v": np.float64(1.5), "a": np.arange(3)}, "", 0.0)
    assert rec.payload == {"v": 1.5, "a": [0, 1, 2]}


# -- randomness -------------------------------------------------------------

def test_runseed_repeatable():
    a = RunSeed(123, 5).generator().normal(size=10)
    b = RunSeed(123, 5).generator().normal(size=10)
    assert np.array_equal(a, b)


def test_runseed_streams_differ():
    a = RunSeed(123, 0).generator().normal(size=10)
    b = RunSeed(123, 1).generator().normal(size=10)
    assert not np.array_equal(a, b)


def test_runseed_children_distinct():
    root = RunSeed(9)
    ids = {root.child(i).stream_id for i in range(1000)}
    assert len(ids) == 1000


def test_subsample_full_draw_is_permutation():
    x = EmbeddingSet(np.arange(12, dtype=float).reshape(6, 2))
    y = subsample(x, 6, RunSeed(3))
    assert sorted(map(tuple, y.data.tolist())) == sorted(map(tuple, x.data.tolist()))


def test_subsample_deterministic():
    x = EmbeddingSet(np.arange(40, dtype=float).reshape(20, 2))
    a = subsample(x, 7, RunSeed(11, 2))
    b = subsample(x, 7, RunSeed(11, 2))
    assert np.array_equal(a.data, b.data)


def test_subsample_too_large():
    x = EmbeddingSet(np.ones((4, 1)))
    with pytest.raises(SizeTooLarge):
        subsample(x, 5, RunSeed(0))


def test_subsample_uniformity_chi_square():
    # m=1 draws over many seeds: per-row frequencies within 3-sigma binomial
    # bounds and an overall chi-square test at the 0.1% level
    n, draws = 8, 10_000
    x = EmbeddingSet(np.arange(n, dtype=float).reshape(n, 1))
    root = RunSeed(2024)
    counts = np.zeros(n)
    for i in range(draws):
        row = subsample(x, 1, root.child(i)).data[0, 0]
        counts[int(row)] += 1
    p = 1.0 / n
    sigma = np.sqrt(draws * p * (1 - p))
    assert np.abs(counts - draws * p).max() <= 3 * sigma
    chi2 = ((counts - draws * p) ** 2 / (draws * p)).sum()
    assert chi2 <= stats.chi2.ppf(0.999, df=n - 1)
