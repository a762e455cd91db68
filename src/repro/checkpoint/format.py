"""The versioned, rank-sharded binary snapshot format.

A checkpoint is a directory ``<root>/step_<NNNNNNNN>/`` holding one
binary *shard* per writing rank plus a JSON *manifest*:

``shard_<RRRR>.bin``
    The rank's named arrays, concatenated little-endian and contiguous.
    Because every rank owns a contiguous segment of the global Morton
    curve (Figure 3 of the paper), concatenating shards in rank order
    reproduces the global Morton-ordered state — which is what makes
    topology-preserving N-rank to M-rank restart a pure re-slice.

``manifest.json``
    Format name/version, world size, step/time counters, driver
    metadata, and — per shard — the array table (name, little-endian
    dtype, shape, byte offset) and a blake2b digest of the shard bytes.
    Restore re-hashes every shard and rejects corruption with a
    structured :class:`ShardIntegrityError` naming the shard.

Writes are atomic: everything lands in ``<dir>.tmp`` first and the
directory is renamed into place only after the manifest is written, so
a crash mid-snapshot can never leave a checkpoint that looks complete.
Retention keeps the newest ``keep`` checkpoints and deletes the rest.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "CheckpointError",
    "ManifestError",
    "ShardIntegrityError",
    "ArrayEntry",
    "ShardInfo",
    "Manifest",
    "shard_name",
    "step_dirname",
    "pack_arrays",
    "unpack_arrays",
    "write_shard",
    "read_shard",
    "write_manifest",
    "read_manifest",
    "list_checkpoints",
    "latest_checkpoint",
    "apply_retention",
]

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_STEP_DIR_RE = re.compile(r"^step_(\d{8})$")


class CheckpointError(RuntimeError):
    """Base class for checkpoint read/write failures."""


class ManifestError(CheckpointError):
    """The manifest is missing, unreadable, or from an unknown format."""


class ShardIntegrityError(CheckpointError):
    """A shard's bytes do not match the digest recorded in the manifest.

    Attributes
    ----------
    shard:
        File name of the offending shard (``shard_0003.bin``).
    path:
        Full path that was read.
    expected, actual:
        Hex digests (manifest vs. recomputed).
    """

    def __init__(self, shard: str, path: str, expected: str, actual: str):
        super().__init__(
            f"checkpoint shard {shard!r} failed integrity check: manifest "
            f"digest {expected} but file hashes to {actual} ({path}); the "
            "shard is corrupt or was tampered with — restore refused"
        )
        self.shard = shard
        self.path = path
        self.expected = expected
        self.actual = actual


def shard_name(rank: int) -> str:
    """Shard filename of one rank: ``shard_0007.bin`` for rank 7."""
    return f"shard_{rank:04d}.bin"


def step_dirname(step: int) -> str:
    """Checkpoint directory name of one step: ``step_00000042``.

    Zero-padded so lexicographic order equals step order."""
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return f"step_{step:08d}"


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _le_dtype(dt: np.dtype) -> np.dtype:
    """The little-endian (or endian-free, for 1-byte items) variant."""
    dt = np.dtype(dt)
    if dt.byteorder == ">" or (dt.byteorder == "=" and not _NATIVE_LE):
        return dt.newbyteorder("<")
    return dt


_NATIVE_LE = np.dtype(np.int64).str[0] == "<"


@dataclass(frozen=True)
class ArrayEntry:
    """Location of one named array inside a shard."""

    name: str
    dtype: str   # numpy dtype string, little-endian ('<f8', '|i1', ...)
    shape: tuple
    offset: int  # byte offset into the shard

    @property
    def nbytes(self) -> int:
        """Byte length of the array payload inside the shard."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def to_json(self) -> dict:
        """JSON-serializable dict for the manifest."""
        return {
            "name": self.name,
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ArrayEntry":
        """Inverse of :meth:`to_json`."""
        return cls(
            name=d["name"],
            dtype=d["dtype"],
            shape=tuple(d["shape"]),
            offset=int(d["offset"]),
        )


@dataclass
class ShardInfo:
    """Manifest record of one shard file."""

    file: str
    nbytes: int
    digest: str
    arrays: list  # of ArrayEntry
    #: optional :func:`repro.parallel.sanitize.freeze` token of the
    #: in-memory arrays at snapshot time (REPRO_SANITIZE=1 runs only);
    #: restore re-verifies the parsed arrays against it
    frozen: str | None = None

    def to_json(self) -> dict:
        """JSON-serializable dict for the manifest."""
        out = {
            "file": self.file,
            "nbytes": self.nbytes,
            "blake2b": self.digest,
            "arrays": [a.to_json() for a in self.arrays],
        }
        if self.frozen is not None:
            out["frozen"] = self.frozen
        return out

    @classmethod
    def from_json(cls, d: dict) -> "ShardInfo":
        """Inverse of :meth:`to_json`."""
        return cls(
            file=d["file"],
            nbytes=int(d["nbytes"]),
            digest=d["blake2b"],
            arrays=[ArrayEntry.from_json(a) for a in d["arrays"]],
            frozen=d.get("frozen"),
        )


@dataclass
class Manifest:
    """The checkpoint's self-describing metadata."""

    nranks: int
    step: int
    time: float
    meta: dict = field(default_factory=dict)
    shards: list = field(default_factory=list)  # of ShardInfo, rank order
    version: int = FORMAT_VERSION

    def to_json(self) -> dict:
        """JSON-serializable dict, including format name and version."""
        return {
            "format": FORMAT_NAME,
            "version": self.version,
            "nranks": self.nranks,
            "step": self.step,
            "time": self.time,
            "meta": self.meta,
            "shards": [s.to_json() for s in self.shards],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Manifest":
        """Parse and validate a manifest dict (format name must match,
        version must not be newer than this reader supports)."""
        if d.get("format") != FORMAT_NAME:
            raise ManifestError(
                f"not a {FORMAT_NAME} manifest (format={d.get('format')!r})"
            )
        if int(d.get("version", -1)) > FORMAT_VERSION:
            raise ManifestError(
                f"manifest version {d['version']} is newer than supported "
                f"version {FORMAT_VERSION}"
            )
        return cls(
            nranks=int(d["nranks"]),
            step=int(d["step"]),
            time=float(d["time"]),
            meta=d.get("meta", {}),
            shards=[ShardInfo.from_json(s) for s in d.get("shards", [])],
            version=int(d["version"]),
        )


# -- shard packing -----------------------------------------------------------


def pack_arrays(arrays: dict) -> tuple[bytes, list]:
    """Serialize named arrays to one little-endian buffer.

    Arrays are laid out in sorted-name order (the manifest records the
    offsets, but a deterministic layout keeps digests reproducible for
    identical state regardless of insertion order).  Returns
    ``(payload, entries)``.
    """
    chunks: list[bytes] = []
    entries: list[ArrayEntry] = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        le = _le_dtype(arr.dtype)
        if le != arr.dtype:
            arr = arr.astype(le)
        data = arr.tobytes()
        entries.append(
            ArrayEntry(name=name, dtype=le.str, shape=arr.shape, offset=offset)
        )
        chunks.append(data)
        offset += len(data)
    return b"".join(chunks), entries


def unpack_arrays(payload: bytes, entries: list) -> dict:
    """Rebuild the named arrays of :func:`pack_arrays` from shard bytes."""
    out = {}
    for e in entries:
        raw = payload[e.offset : e.offset + e.nbytes]
        if len(raw) != e.nbytes:
            raise CheckpointError(
                f"array {e.name!r} extends past the end of its shard "
                f"({e.offset}+{e.nbytes} > {len(payload)} bytes)"
            )
        out[e.name] = np.frombuffer(raw, dtype=np.dtype(e.dtype)).reshape(e.shape).copy()
    return out


def write_shard(path: str, arrays: dict, frozen: str | None = None) -> ShardInfo:
    """Write one shard file; returns its manifest record."""
    payload, entries = pack_arrays(arrays)
    with open(path, "wb") as fh:
        fh.write(payload)
    return ShardInfo(
        file=os.path.basename(path),
        nbytes=len(payload),
        digest=_digest(payload),
        arrays=entries,
        frozen=frozen,
    )


def read_shard(directory: str, info: ShardInfo) -> dict:
    """Read and integrity-check one shard.

    Raises :class:`ShardIntegrityError` naming the shard when the bytes
    do not hash to the manifest digest.
    """
    path = os.path.join(directory, info.file)
    with open(path, "rb") as fh:
        payload = fh.read()
    actual = _digest(payload)
    if actual != info.digest:
        raise ShardIntegrityError(info.file, path, info.digest, actual)
    return unpack_arrays(payload, info.arrays)


# -- manifest / directory management ----------------------------------------


def write_manifest(directory: str, manifest: Manifest) -> str:
    """Atomically write ``manifest.json`` into ``directory`` (tmp file +
    ``os.replace``) and return its path."""
    path = os.path.join(directory, MANIFEST_NAME)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def read_manifest(directory: str) -> Manifest:
    """Load and validate ``manifest.json`` from ``directory``.

    Raises :class:`ManifestError` if missing, unparsable, or of an
    unsupported version.

    Example::

        m = read_manifest("ckpt/step_00000004")
        [a.name for a in m.shards[0].arrays]
    """
    path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise ManifestError(f"no {MANIFEST_NAME} in {directory!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"unreadable manifest {path!r}: {exc}") from exc
    return Manifest.from_json(data)


def list_checkpoints(root: str) -> list[tuple[int, str]]:
    """Complete checkpoints under ``root`` as sorted ``(step, path)``.

    Only directories matching ``step_NNNNNNNN`` *with a manifest* count —
    in-flight ``.tmp`` staging directories and torn writes are invisible.
    """
    if not os.path.isdir(root):
        return []
    out = []
    for name in sorted(os.listdir(root)):
        m = _STEP_DIR_RE.match(name)
        if not m:
            continue
        path = os.path.join(root, name)
        if os.path.isfile(os.path.join(path, MANIFEST_NAME)):
            out.append((int(m.group(1)), path))
    return out


def latest_checkpoint(root: str) -> str | None:
    """Path of the newest complete checkpoint under ``root`` (or None)."""
    ckpts = list_checkpoints(root)
    return ckpts[-1][1] if ckpts else None


def apply_retention(root: str, keep: int | None) -> list[str]:
    """Delete all but the newest ``keep`` checkpoints; returns removals."""
    if keep is None or keep < 1:
        return []
    removed = []
    for _, path in list_checkpoints(root)[:-keep]:
        shutil.rmtree(path)
        removed.append(path)
    return removed
