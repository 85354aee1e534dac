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

Randomness
----------
All Monte Carlo code draws from counter-based Philox streams keyed by a
(seed, stream_id) pair, so identical pairs give bit-identical streams on any
platform and distinct stream_ids give independent streams.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
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
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            r, c = bad[0]
            raise NonFiniteEntry(int(r), int(c), self.label)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def load_embeddings(path: str, fmt: str | None = None) -> EmbeddingSet:
    """Read an embedding set from ``path``.

    ``fmt`` is 'csv' or 'binary'; when None the format is sniffed from the
    first four bytes.
    """
    if fmt is None:
        fmt = detect_format(path)
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "binary":
        data = _read_container(path, _MAGIC_EMBD)
        return EmbeddingSet(data, label=os.path.basename(path))
    raise DataError(f"unknown embedding format {fmt!r}")


def save_embeddings(x: EmbeddingSet, path: str, fmt: str = "binary") -> None:
    if fmt == "csv":
        lines = ["# " + ",".join(f"c{j}" for j in range(x.d))]
        for row in x.data:
            lines.append(",".join(format_float(v) for v in row))
        write_text(path, "\n".join(lines) + "\n")
    elif fmt == "binary":
        _write_container(path, _MAGIC_EMBD, x.data)
    else:
        raise DataError(f"unknown embedding format {fmt!r}")


def detect_format(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return "binary" if head == _MAGIC_EMBD else "csv"


def _load_csv(path: str) -> EmbeddingSet:
    rows: list[list[float]] = []
    width = -1
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
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
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if not rows:
        raise EmptySet(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        r, c = bad[0]
        raise NonFiniteEntry(int(r), int(c), path)
    return EmbeddingSet(arr, label=os.path.basename(path))


def _write_container(path: str, magic: bytes, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    n, d = arr.shape
    header = magic + struct.pack("<IQQ", _BINARY_VERSION, n, d)
    payload = arr.astype("<f8", copy=False).tobytes(order="C")
    _write_bytes(path, header + payload)


def _read_container(path: str, magic: bytes) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    if len(blob) < 24 or blob[:4] != magic:
        raise MalformedFile(f"{path}: bad magic, expected {magic.decode()}")
    version, n, d = struct.unpack("<IQQ", blob[4:24])
    if version != _BINARY_VERSION:
        raise MalformedFile(f"{path}: unsupported version {version}")
    if n == 0:
        raise EmptySet(f"{path}: container declares zero rows")
    expected = 24 + 8 * n * d
    if len(blob) != expected:
        raise MalformedFile(f"{path}: expected {expected} bytes, found {len(blob)}")
    arr = np.frombuffer(blob, dtype="<f8", offset=24).reshape(int(n), int(d)).copy()
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        r, c = bad[0]
        raise NonFiniteEntry(int(r), int(c), path)
    return arr


def write_matrix_container(path: str, arr: np.ndarray) -> None:
    """Write a square matrix in the binary container (magic GRAM)."""
    _write_container(path, _MAGIC_GRAM, arr)


def read_matrix_container(path: str) -> np.ndarray:
    return _read_container(path, _MAGIC_GRAM)


def _write_bytes(path: str, blob: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(blob)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
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


def load_record(path: str) -> ResultRecord:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
    for key in ("kind", "payload", "config_hash", "timestamp"):
        if key not in doc:
            raise MalformedFile(f"{path}: missing field {key!r}")
    return ResultRecord(doc["kind"], doc["payload"], doc["config_hash"], doc["timestamp"])


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
