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
"""

from __future__ import annotations

import contextlib
import io
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


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors in dict insertion order.

    The bytes go to a temporary sibling that is then renamed over ``path``,
    so a write that fails part-way leaves any previous file untouched. The
    parts are written one after another, never joined into one copy.
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


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    magic = rd.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r} at byte 0")
    version = rd.u32("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at byte 4")
    count = rd.u32("tensor count")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = rd.u32("name length")
        name_at = rd.off
        name = rd.text(name_len, "tensor name")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r} at byte {name_at}")
        rank = rd.u32("rank")
        dims = tuple(rd.u64("dimension") for _ in range(rank))
        n = 1
        for d in dims:
            n *= d
        raw = rd.take(8 * n, f"values of {name}")
        tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    if rd.off != len(rd.buf):
        raise FormatError(f"trailing bytes after last tensor at byte {rd.off}")
    return tensors


def write_features(path, utterances: list[tuple[str, np.ndarray]]) -> None:
    """Write (utterance id, (T_in, F) frames) pairs; values stored as float32."""
    parts = [FEATURE_MAGIC, struct.pack("<II", FORMAT_VERSION, len(utterances))]
    for utt_id, frames in utterances:
        frames = np.ascontiguousarray(frames, dtype="<f4")
        if frames.ndim != 2:
            raise FormatError(f"utterance {utt_id!r} frames must be 2-D, got shape {frames.shape}")
        raw = utt_id.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<II", frames.shape[0], frames.shape[1]))
        parts.append(frames.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read_features(path) -> list[tuple[str, np.ndarray]]:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    magic = rd.take(len(FEATURE_MAGIC), "magic")
    if magic != FEATURE_MAGIC:
        raise FormatError(f"bad feature magic {magic!r} at byte 0")
    version = rd.u32("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported feature version {version} at byte {len(FEATURE_MAGIC)}")
    count = rd.u32("utterance count")
    out: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for _ in range(count):
        id_len = rd.u32("id length")
        id_at = rd.off
        utt_id = rd.text(id_len, "utterance id")
        if utt_id in seen:
            raise FormatError(f"duplicate utterance id {utt_id!r} at byte {id_at}")
        seen.add(utt_id)
        t_in = rd.u32("frame count")
        feat_dim = rd.u32("feature dim")
        raw = rd.take(4 * t_in * feat_dim, f"frames of {utt_id}")
        frames = np.frombuffer(raw, dtype="<f4").reshape(t_in, feat_dim).astype(np.float64)
        out.append((utt_id, frames))
    if rd.off != len(rd.buf):
        raise FormatError(f"trailing bytes after last utterance at byte {rd.off}")
    return out


def write_transcripts(path, items: list[tuple[str, list[int]]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for utt_id, tokens in items:
            fh.write(utt_id + "\t" + " ".join(str(t) for t in tokens) + "\n")


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
