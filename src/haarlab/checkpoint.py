"""Binary checkpoint files for named parameter segments.

Little-endian layout, in file order:

    magic   4 bytes  b"HLCP"
    version u32      currently 1
    mlen    u32      metadata byte length
    meta    mlen     UTF-8 JSON object
    nseg    u32      segment count
    then per segment (sorted by name):
        nlen   u16     name byte length
        name   nlen    UTF-8
        offset u64     offset into the value block, in float64 units
        length u64     segment length, in float64 units
    values  8 * total  float64 little-endian

Round-trips are bit-exact: values are written verbatim as IEEE doubles.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"HLCP"
VERSION = 1


class CheckpointError(RuntimeError):
    pass


@contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Write path's temporary sibling, renamed onto path when the block finishes."""
    with open(path + ".tmp", mode, **kwargs) as fh:
        yield fh
    os.replace(path + ".tmp", path)


def save_checkpoint(path: str, segments: dict[str, np.ndarray],
                    metadata: dict | None = None) -> None:
    names = sorted(segments)
    arrays = [np.ascontiguousarray(np.asarray(segments[n], dtype="<f8").ravel()) for n in names]
    meta_bytes = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(struct.pack("<I", len(names)))
        offset = 0
        for name, arr in zip(names, arrays):
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<H", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<QQ", offset, arr.size))
            offset += arr.size
        for arr in arrays:
            fh.write(arr.tobytes())


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise CheckpointError(f"truncated checkpoint file {path}")
        out = blob[pos:pos + n]
        pos += n
        return out

    if take(4) != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", take(4))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (mlen,) = struct.unpack("<I", take(4))
    metadata = json.loads(take(mlen).decode("utf-8"))
    (nseg,) = struct.unpack("<I", take(4))
    entries = []
    for _ in range(nseg):
        (nlen,) = struct.unpack("<H", take(2))
        name = take(nlen).decode("utf-8")
        offset, length = struct.unpack("<QQ", take(16))
        entries.append((name, offset, length))
    total = sum(length for _, _, length in entries)
    values = np.frombuffer(take(8 * total), dtype="<f8")
    if pos != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint file {path}")
    segments = {}
    for name, offset, length in entries:
        if offset + length > total:
            raise CheckpointError(f"segment {name!r} exceeds the value block")
        segments[name] = values[offset:offset + length].astype(np.float64)
    return segments, metadata
