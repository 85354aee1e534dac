"""Embedding-set ingestion, result persistence, and seeded randomness.

File formats
------------
CSV embeddings: one sample per line, comma-separated decimal floats, optional
leading header line(s) starting with '#'.

Binary embeddings: magic ``EMBD`` (4 bytes), version u32 = 1, n u64, d u64,
then n*d little-endian IEEE-754 float64 values in row-major order.  All
integers are little-endian.  Gram matrices use the same container with magic
``GRAM``.

Results: canonical UTF-8 JSON with sorted keys and floats rendered with 17
significant digits, so writing and re-reading a record is the identity.

Ingest
------
An input must be a regular file (a stat says so before it is opened): a pipe
loses the bytes a read took, and a FIFO with no writer blocks its open.  Its
first four bytes name its format: ``EMBD`` a container, else CSV.
numpy's C reader does the parsing of a CSV file, in one pass: a line filter
drops blank and comment lines and feeds the stripped data lines to
``np.loadtxt``.  The line reader, ``_read_csv_lines``, decides every failure.
When the filter meets a data line it will not pass (one holding an ASCII
information separator, which numpy would skip as whitespace and Python's
``float`` rejects), or numpy rejects a line (a changed field count) or a
value (an inline '#' among others), the line reader reads the same open
file again, from its first byte, through Python's ``float``.  It raises the
first error in file order, or returns the values ``float`` gives: inputs
such as ``1_0`` or non-ASCII digits are read only there.  Both paths give
the same values bit for bit.
A binary container lands in its array once: its header is checked against
the file size before anything is allocated, and its payload is read straight
into the returned array.  Writing sends the header and then the array's own
buffer.

Randomness
----------
All Monte Carlo code draws from counter-based Philox streams keyed by a
(seed, stream_id) pair, so identical pairs give bit-identical streams on any
platform and distinct stream_ids give independent streams.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import stat
import struct
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    EmptySet,
    IoFailure,
    MalformedFile,
    NonFiniteEntry,
    SizeTooLarge,
)

_MAGIC_EMBD = b"EMBD"
_MAGIC_GRAM = b"GRAM"
_BINARY_VERSION = 1


# ---------------------------------------------------------------------------
# embedding sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingSet:
    """An n-by-d matrix of sample embeddings, one row per sample.

    Rows keep load order.  The underlying array is read-only so a set can be
    shared freely across threads.
    """

    data: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"embedding data must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise EmptySet("embedding set has no rows")
        if arr.shape[1] < 1:
            raise DataError("embedding set has zero columns")
        _check_finite(arr, self.label)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def load_embeddings(path: str) -> EmbeddingSet:
    """Read an embedding set from the regular file ``path``: an EMBD container if
    its first four bytes say so, else CSV."""
    with _regular_file(path) as fd:
        magic = os.read(fd, 4)
        os.lseek(fd, 0, os.SEEK_SET)
        if magic == _MAGIC_EMBD:
            arr = _read_container(fd, path, magic)
        elif magic == _MAGIC_GRAM:
            raise MalformedFile(f"{path}: a GRAM container holds a Gram matrix, not embeddings")
        else:
            try:
                with open(fd, "r", encoding="utf-8", closefd=False) as fh:
                    arr = np.loadtxt(_data_lines(fh, path), delimiter=",", comments=None,
                                     dtype=np.float64, ndmin=2)
            except (_LeaveToLineReader, ValueError):  # ValueError covers UnicodeDecodeError
                os.lseek(fd, 0, os.SEEK_SET)
                arr = _read_csv_lines(fd, path)
    try:  # EmbeddingSet makes the one finiteness scan; its error names the path here
        return EmbeddingSet(arr, label=os.path.basename(path))
    except NonFiniteEntry as exc:
        raise NonFiniteEntry(exc.row, exc.col, path) from None


@contextmanager
def _regular_file(path: str):
    """A read descriptor of the regular file ``path``; an ``OSError`` is an ``IoFailure``."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            raise IoFailure(f"{path}: not a regular file")
        fd = os.open(path, os.O_RDONLY)
        try:
            yield fd
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def save_embeddings(x: EmbeddingSet, path: str, fmt: str = "binary") -> None:
    if fmt == "csv":  # each row is written as it is formatted
        header = "# " + ",".join(f"c{j}" for j in range(x.d)) + "\n"
        rows = (",".join(map(format_float, row.tolist())) + "\n" for row in x.data)
        write_text(path, itertools.chain((header,), rows))
    elif fmt == "binary":
        _write_container(path, _MAGIC_EMBD, x.data)
    else:
        raise DataError(f"unknown embedding format {fmt!r}")


def _check_finite(arr: np.ndarray, where: str) -> None:
    """Raise ``NonFiniteEntry`` at the first non-finite entry in row order.

    The min and the max carry any NaN or infinity, so a finite array is
    checked without an array-sized temporary.
    """
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        r, c = np.argwhere(~np.isfinite(arr))[0]
        raise NonFiniteEntry(int(r), int(c), where)


class _LeaveToLineReader(Exception):
    """Raised by the CSV line filter at a data line numpy's reader must not see."""


def _data_lines(fh, path: str):
    """The stripped data lines of an open CSV file, for ``np.loadtxt``.

    Skips blank lines and lines that start with '#'.  Raises
    ``_LeaveToLineReader`` at a data line holding an ASCII information
    separator \\x1c-\\x1f, which numpy skips as whitespace around a value and
    Python's ``float`` rejects, and ``EmptySet`` at the end of a file without
    data lines, so numpy never reads an empty input.  numpy itself raises at
    a changed field count and at a '#' inside a data line (``comments=None``).
    """
    empty = True
    for line in fh:
        line = line.strip()
        if not line or line[0] == "#":
            continue
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise _LeaveToLineReader
        empty = False
        yield line
    if empty:
        raise EmptySet(f"{path}: no data rows")


def _read_csv_lines(fd: int, path: str) -> np.ndarray:
    """The reference CSV reader: one line at a time through Python's ``float``.

    Raises the first error in file order: bytes that are not UTF-8 (by byte
    offset), a ragged row or an unparsable value (by line number); then
    ``EmptySet`` if no data line was found.
    """
    rows: list[list[float]] = []
    width = -1
    offset = 0
    with open(fd, "r", encoding="utf-8", errors="surrogateescape", newline="",
              closefd=False) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                offset += len(line.encode("utf-8"))
            except UnicodeEncodeError as exc:  # a byte escaped by surrogateescape
                at = offset + len(line[:exc.start].encode("utf-8"))
                raise MalformedFile(
                    f"{path}: invalid UTF-8 at byte {at} (line {lineno})"
                ) from None
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if width < 0:
                width = len(parts)
            elif len(parts) != width:
                raise MalformedFile(
                    f"{path}: ragged row at line {lineno} "
                    f"({len(parts)} fields, expected {width})"
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise MalformedFile(f"{path}: unparsable value at line {lineno}") from exc
    if not rows:
        raise EmptySet(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def _write_container(path: str, magic: bytes, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    n, d = arr.shape
    try:
        with open(path, "wb") as fh:
            fh.write(magic + struct.pack("<IQQ", _BINARY_VERSION, n, d))
            fh.write(arr)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _read_container(fd: int, path: str, magic: bytes) -> np.ndarray:
    with open(fd, "rb", closefd=False) as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != magic:
            raise MalformedFile(f"{path}: bad magic, expected {magic.decode()}")
        version, n, d = struct.unpack("<IQQ", header[4:])
        if version != _BINARY_VERSION:
            raise MalformedFile(f"{path}: unsupported version {version}")
        if n == 0:
            raise EmptySet(f"{path}: container declares zero rows")
        expected = 24 + 8 * n * d
        found = os.fstat(fd).st_size
        if found == expected:  # a file that shrinks while read is caught below
            arr = np.empty((n, d), dtype="<f8")
            found = 24 + fh.readinto(arr)
        if found != expected:
            raise MalformedFile(f"{path}: expected {expected} bytes, found {found}")
    return arr


def write_matrix_container(path: str, arr: np.ndarray) -> None:
    """Write a square matrix in the binary container (magic GRAM)."""
    _write_container(path, _MAGIC_GRAM, arr)


def read_matrix_container(path: str) -> np.ndarray:
    with _regular_file(path) as fd:
        arr = _read_container(fd, path, _MAGIC_GRAM)
    _check_finite(arr, path)
    return arr


def write_text(path: str, text: str | Iterable[str]) -> None:
    """Write ``text``, or each string of an iterable in turn, to ``path`` as UTF-8."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


# ---------------------------------------------------------------------------
# seeded randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One round of splitmix64; mixes a 64-bit word into a new 64-bit word."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RunSeed:
    """A (seed, stream_id) pair naming one Philox random stream.

    The same pair always produces the same stream; child streams derived
    through :meth:`child` are independent of the parent and of each other.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RunSeed":
        """Derive an independent stream; used once per trial/sample."""
        mixed = _splitmix64(self.stream_id ^ _splitmix64((int(index) + 1) & _MASK64))
        return RunSeed(self.seed, mixed)


def subsample(x: EmbeddingSet, m: int, rng: RunSeed) -> EmbeddingSet:
    """Choose m rows uniformly without replacement, in draw order."""
    if m < 1:
        raise DataError(f"subsample size must be >= 1, got {m}")
    if m > x.n:
        raise SizeTooLarge(f"requested {m} rows from a set of {x.n}")
    idx = rng.generator().choice(x.n, size=m, replace=False)
    return EmbeddingSet(x.data[idx], label=x.label)


# ---------------------------------------------------------------------------
# result records and canonical JSON
# ---------------------------------------------------------------------------

RECORD_KINDS = ("score", "curve", "projection", "guidance", "bias", "concentration")


@dataclass
class ResultRecord:
    """One persisted experiment result.

    ``payload`` must be a JSON tree (dict/list/str/int/float/bool/None);
    numpy scalars and arrays are converted on construction so that a record
    written to disk reads back equal.
    """

    kind: str
    payload: dict
    config_hash: str = ""
    timestamp: float = 0.0

    def __post_init__(self):
        if self.kind not in RECORD_KINDS:
            raise DataError(f"unknown record kind {self.kind!r}")
        self.payload = _jsonify(self.payload)
        self.timestamp = float(self.timestamp)


def save_record(record: ResultRecord, path: str) -> None:
    doc = {
        "kind": record.kind,
        "payload": record.payload,
        "config_hash": record.config_hash,
        "timestamp": record.timestamp,
    }
    write_text(path, canonical_json(doc) + "\n")


def format_float(value: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    if not math.isfinite(value):
        raise DataError(f"cannot serialize non-finite float {value!r}")
    return format(float(value), ".17g")


def canonical_json(obj) -> str:
    """Serialize a JSON tree deterministically: sorted keys, 17-digit floats."""
    out: list[str] = []
    _emit(_jsonify(obj), out)
    return "".join(out)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    else:
        raise DataError(f"cannot serialize value of type {type(obj).__name__}")


def _jsonify(obj):
    """Coerce numpy scalars/arrays and tuples into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def config_hash(config: dict) -> str:
    """SHA-256 of the canonical serialization; invariant to key order."""
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()
