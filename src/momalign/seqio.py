"""Bit-exact binary persistence for named tensors, plus manifest parsing and
the line reader shared with config files.

Container layout (all integers little-endian):

    magic           4 bytes  b"FSQ1"
    tensor count    u32
    per tensor:
        name length u32, then UTF-8 name bytes
        rank        u32
        dims        u32 each
        dtype tag   u32 (0 = f32, 1 = f64)
        offset      u64 (absolute byte offset of the payload)
    payloads        raw little-endian array bytes

Writes are byte-deterministic for identical input, so file hashes can be
used as reproducibility checks.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MAGIC = b"FSQ1"

_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_TAG = {dtype: tag for tag, dtype in _TAG_TO_DTYPE.items()}


class SeqIOError(Exception):
    """Base class for container/manifest errors."""


class BadMagicError(SeqIOError):
    pass


class TruncatedPayloadError(SeqIOError):
    pass


class OverlappingOffsetsError(SeqIOError):
    pass


class ManifestError(SeqIOError):
    pass


def write_container(tensors: dict[str, np.ndarray], path: str | Path) -> None:
    """Write named arrays to a single FSQ1 container file.

    Four-byte floats of either byte order are stored as f32, and every
    other dtype as f64. Names must be unique (dict enforces) and non-empty.
    """
    entries = []
    for name, arr in tensors.items():
        if not name:
            raise ValueError("tensor names must be non-empty")
        a = np.asarray(arr)
        a = a.astype("<f4" if a.dtype.kind == "f" and a.dtype.itemsize == 4 else "<f8", copy=False)
        # ascontiguousarray promotes rank-0 arrays to rank 1; restore shape.
        entries.append((name, np.ascontiguousarray(a).reshape(a.shape)))

    header = bytearray()
    header += MAGIC
    header += struct.pack("<I", len(entries))

    # Two passes: sizes first, then offsets relative to the full header.
    fixed = len(header)
    for name, a in entries:
        fixed += 4 + len(name.encode("utf-8")) + 4 + 4 * a.ndim + 4 + 8

    offset = fixed
    for name, a in entries:
        nb = name.encode("utf-8")
        header += struct.pack("<I", len(nb)) + nb
        header += struct.pack("<I", a.ndim)
        for d in a.shape:
            header += struct.pack("<I", d)
        header += struct.pack("<I", _DTYPE_TO_TAG[a.dtype])
        header += struct.pack("<Q", offset)
        offset += a.nbytes

    with open(path, "wb") as fh:
        fh.write(bytes(header))
        for _, a in entries:
            fh.write(a.tobytes())


def read_container(path: str | Path) -> dict[str, np.ndarray]:
    """Read an FSQ1 container; exact inverse of :func:`write_container`."""
    data = Path(path).read_bytes()
    if len(data) < 8 or data[:4] != MAGIC:
        raise BadMagicError(f"{path}: bad magic (expected FSQ1)")
    (count,) = struct.unpack_from("<I", data, 4)
    pos = 8
    metas = []
    names: set[str] = set()
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", data, pos) if rank else ()
            pos += 4 * rank
            (tag,) = struct.unpack_from("<I", data, pos)
            pos += 4
            (off,) = struct.unpack_from("<Q", data, pos)
            pos += 8
            if tag not in _TAG_TO_DTYPE:
                raise SeqIOError(f"{path}: unknown dtype tag {tag}")
            if name in names:
                raise SeqIOError(f"{path}: duplicate tensor name '{name}'")
            names.add(name)
            metas.append((name, dims, _TAG_TO_DTYPE[tag], off))
    except struct.error as exc:
        raise TruncatedPayloadError(f"{path}: truncated header") from exc
    except UnicodeDecodeError as exc:
        raise SeqIOError(f"{path}: tensor name is not valid UTF-8") from exc

    spans = []
    out: dict[str, np.ndarray] = {}
    for name, dims, dtype, off in metas:
        n_elems = math.prod(dims)  # exact: a fixed-width product can wrap
        nbytes = n_elems * dtype.itemsize
        if off + nbytes > len(data) or off < pos:
            raise TruncatedPayloadError(
                f"{path}: payload for '{name}' out of bounds"
            )
        spans.append((off, off + nbytes, name))
        out[name] = np.frombuffer(data, dtype=dtype, count=n_elems, offset=off).reshape(
            dims
        ).copy()

    spans.sort()
    for (s0, e0, n0), (s1, _e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise OverlappingOffsetsError(
                f"{path}: payloads of '{n0}' and '{n1}' overlap"
            )
    return out


@dataclass(frozen=True)
class ManifestEntry:
    clip_id: str
    label: str
    path: str


@dataclass(frozen=True)
class Manifest:
    """Index of stored feature clips with class labels.

    ``root`` is the directory the entry paths are relative to (the manifest
    file's own directory when loaded from disk).
    """

    entries: tuple[ManifestEntry, ...]
    root: str = "."

    def by_label(self) -> dict[str, list[ManifestEntry]]:
        grouped: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            grouped.setdefault(e.label, []).append(e)
        return grouped

    def resolve(self, entry: ManifestEntry) -> Path:
        return Path(self.root) / entry.path


def text_lines(path: str | Path, what: str, error: type[Exception]) -> list[tuple[int, str]]:
    """``(line number, line)`` for each line of a UTF-8 text file that is not
    blank and not a ``#`` comment. One leading byte-order mark is skipped.
    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``, as a text-mode ``open()``
    splits them. A line that is not valid UTF-8 raises
    ``error("<path>:<line>: <what> is not valid UTF-8")``."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    out = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise error(f"{path}:{lineno}: {what} is not valid UTF-8") from None
        if line.strip() and not line.lstrip().startswith("#"):
            out.append((lineno, line))
    return out


def read_manifest(path: str | Path) -> Manifest:
    """Parse a line-delimited ``id<TAB>class<TAB>relative-path`` manifest,
    read by :func:`text_lines`. Each field is stripped of surrounding
    whitespace. Duplicate ids and malformed lines (a field count other than
    three, or a blank field) are rejected with the offending line number / id.
    """
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in text_lines(path, "manifest", ManifestError):
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3 or not all(parts):
            raise ManifestError(f"{path}:{lineno}: malformed manifest line")
        clip_id, label, rel = parts
        if clip_id in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate id '{clip_id}'")
        seen.add(clip_id)
        entries.append(ManifestEntry(clip_id, label, rel))
    return Manifest(tuple(entries), root=str(Path(path).parent))


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    lines = [f"{e.clip_id}\t{e.label}\t{e.path}" for e in manifest.entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
