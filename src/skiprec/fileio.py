"""Binary checkpoint / feature container formats and transcript text files.

Checkpoint layout (all integers little-endian):
    magic "SKPF" | version u32 | tensor count u32 |
    per tensor: name length u32, UTF-8 name, rank u32, dims u64 each,
    float64 values row-major.

Feature container layout:
    magic "SKPF-FEAT" | version u32 | utterance count u32 |
    per utterance: id length u32, UTF-8 id, T_in u32, F u32,
    float32 values row-major.

Transcripts are text lines: utterance id, a tab, space-separated token ids.

Every writer writes its bytes to a temporary sibling of the target and
renames it over the target, so a write that fails part-way leaves any
previous file untouched. The writers reject what the readers reject, before
they open the file, so a rejected write leaves no file: a repeated id, an id
that UTF-8 cannot encode, a non-finite feature value (checked after the cast
to float32), a transcript id holding a tab, LF or CR and a token that is not
an integer (``bool`` is not) raise ``FormatError`` naming the utterance.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct

import numpy as np

from .errors import FormatError

CHECKPOINT_MAGIC = b"SKPF"
FEATURE_MAGIC = b"SKPF-FEAT"
FORMAT_VERSION = 1


class _Reader:
    """Sequential reader that reports the byte offset of any shortfall."""

    def __init__(self, buf: bytes) -> None:
        self.buf = buf
        self.off = 0

    def take(self, n: int, what: str) -> bytes:
        if self.off + n > len(self.buf):
            raise FormatError(f"truncated while reading {what} at byte {self.off}")
        chunk = self.buf[self.off:self.off + n]
        self.off += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def text(self, n: int, what: str) -> str:
        start = self.off
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{what} at byte {start} is not valid UTF-8")


def _write(path, parts) -> None:
    """Write ``parts`` one after another to a temporary sibling, then rename it over ``path``."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _entries(path, magic: bytes, kind: str, entry: str, label: str):
    """Yield (name, reader) for each entry of a container, the reader at its body.

    Reads the whole file once and checks the magic, the version, the UTF-8
    of each entry's name (its ``label`` in errors) and that no name repeats.
    The caller reads each body before asking for the next entry; bytes left
    after the last one raise ``FormatError``.
    """
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    found = rd.take(len(magic), "magic")
    if found != magic:
        raise FormatError(f"bad {kind} magic {found!r} at byte 0")
    version = rd.u32("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported {kind} version {version} at byte {len(magic)}")
    seen: set[str] = set()
    for _ in range(rd.u32(f"{entry} count")):
        name_len = rd.u32(f"{label} length")
        name_at = rd.off
        name = rd.text(name_len, label)
        if name in seen:
            raise FormatError(f"duplicate {label} {name!r} at byte {name_at}")
        seen.add(name)
        yield name, rd
    if rd.off != len(rd.buf):
        raise FormatError(f"trailing bytes after last {entry} at byte {rd.off}")


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors in dict insertion order.

    The parts are written one after another, never joined into one copy.
    """
    parts = [CHECKPOINT_MAGIC, struct.pack("<II", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        # asarray, not ascontiguousarray: the latter promotes rank-0 to rank-1
        arr = np.asarray(arr, dtype="<f8")
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        parts.append(arr.tobytes())
    _write(path, parts)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for name, rd in _entries(path, CHECKPOINT_MAGIC, "checkpoint", "tensor", "tensor name"):
        dims = tuple(rd.u64("dimension") for _ in range(rd.u32("rank")))
        raw = rd.take(8 * math.prod(dims), f"values of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    return tensors


def _encoded_ids(ids: list[str]) -> list[bytes]:
    """Each id as UTF-8; a repeated id or one UTF-8 cannot encode raises FormatError."""
    out, seen = [], set()
    for utt_id in ids:
        if utt_id in seen:
            raise FormatError(f"utterance id {utt_id!r} is repeated")
        seen.add(utt_id)
        try:
            out.append(utt_id.encode("utf-8"))
        except UnicodeEncodeError:
            raise FormatError(f"utterance id {utt_id!r} cannot be encoded as UTF-8")
    return out


def write_features(path, utterances: list[tuple[str, np.ndarray]]) -> None:
    """Write (utterance id, (T_in, F) frames) pairs; values stored as float32."""
    raw_ids = _encoded_ids([utt_id for utt_id, _ in utterances])
    parts = [FEATURE_MAGIC, struct.pack("<II", FORMAT_VERSION, len(utterances))]
    for (utt_id, frames), raw in zip(utterances, raw_ids):
        with np.errstate(over="ignore"):   # an overflow to inf is reported below
            frames = np.ascontiguousarray(frames, dtype="<f4")
        if frames.ndim != 2:
            raise FormatError(f"utterance {utt_id!r} frames must be 2-D, got shape {frames.shape}")
        if not np.isfinite(frames).all():
            raise FormatError(f"utterance {utt_id!r} has non-finite frame values as float32")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<II", frames.shape[0], frames.shape[1]))
        parts.append(frames.tobytes())
    _write(path, parts)


def read_features(path) -> list[tuple[str, np.ndarray]]:
    out: list[tuple[str, np.ndarray]] = []
    for utt_id, rd in _entries(path, FEATURE_MAGIC, "feature", "utterance", "utterance id"):
        t_in = rd.u32("frame count")
        feat_dim = rd.u32("feature dim")
        frames_at = rd.off
        raw = np.frombuffer(rd.take(4 * t_in * feat_dim, f"frames of {utt_id}"), dtype="<f4")
        if not np.isfinite(raw).all():
            raise FormatError(f"frames of {utt_id!r} at byte {frames_at} hold non-finite values")
        out.append((utt_id, raw.reshape(t_in, feat_dim).astype(np.float64)))
    return out


def write_transcripts(path, items: list[tuple[str, list[int]]]) -> None:
    lines = []
    for (utt_id, tokens), raw in zip(items, _encoded_ids([utt_id for utt_id, _ in items])):
        if "\t" in utt_id or "\n" in utt_id or "\r" in utt_id:
            raise FormatError(f"utterance id {utt_id!r} holds a tab, LF or CR")
        if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool) for t in tokens):
            raise FormatError(f"utterance {utt_id!r} has a token that is not an integer")
        lines.append(raw + b"\t" + " ".join(str(t) for t in tokens).encode("ascii") + b"\n")
    _write(path, lines)


def read_transcripts(path) -> dict[str, list[int]]:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = raw.count(b"\n", 0, err.start) + 1
        raise FormatError(f"transcript line {lineno} is not valid UTF-8 (byte {err.start})")
    out: dict[str, list[int]] = {}
    # newline=None reads "\r\n" and "\r" line ends as a text-mode file does
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if "\t" not in line:
            raise FormatError(f"transcript line {lineno} has no tab separator")
        utt_id, rest = line.split("\t", 1)
        try:
            tokens = [int(tok) for tok in rest.split()] if rest.strip() else []
        except ValueError:
            raise FormatError(f"transcript line {lineno} has a non-integer token")
        if utt_id in out:
            raise FormatError(f"duplicate utterance id {utt_id!r} at line {lineno}")
        out[utt_id] = tokens
    return out
