"""Binary checkpoint format for named parameter tensors.

Little-endian layout: magic ``CGW1``, ``u32`` tensor count, then per tensor:
``u32`` name length, name bytes (UTF-8), ``u32`` rank, ``u32`` dims, float32
values in row-major order.  Values are stored as float32, so float32
parameters round-trip bitwise.  ``checkpoint_bytes`` encodes; writing the
bytes to disk is the caller's job.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from .tensor import Tensor

CHECKPOINT_MAGIC = b"CGW1"


class CheckpointError(Exception):
    """Corrupt checkpoint files or name/shape mismatches on load."""


def checkpoint_bytes(params: Mapping[str, Tensor]) -> bytes:
    """The checkpoint of ``params``, tensors sorted by name."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name].data, dtype="<f4")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    return b"".join(parts)


def load_checkpoint(path: str | Path,
                    expected_shapes: Mapping[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Load float32 tensors whose names and shapes are ``expected_shapes``.  A
    NaN or infinite value is a CheckpointError naming its tensor."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    off = 4
    try:
        (count,) = struct.unpack_from("<I", blob, off)
        off += 4
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            size = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f4", count=size, offset=off).copy()
            off += 4 * size
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
            out[name] = arr.reshape(shape)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint ({exc})") from None
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    missing = sorted(set(expected_shapes) - set(out))
    extra = sorted(set(out) - set(expected_shapes))
    if missing or extra:
        raise CheckpointError(f"{path}: tensor names do not match the config "
                              f"(missing {missing}, unexpected {extra})")
    for name, shape in expected_shapes.items():
        if out[name].shape != tuple(shape):
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{out[name].shape}, expected {tuple(shape)}")
    return out
