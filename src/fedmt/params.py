"""Named parameter sets: storage, counting, checkpoints.

Every model in the simulator is a :class:`NamedParamSet`: an immutable,
name-ordered map from tensor names to arrays. Which tensors train and
which side of the model each belongs to are read from the model's layout
(``ToyModel.trainable_names``, ``ToyModel.trainable_by_side``), not stored
here. Aggregation averages these sets in
``federation.inner_cluster_aggregate``.

Binary checkpoint format (little-endian):

    magic   b"FMPS"
    u32     format version (3; a file of an earlier version is refused)
    u32     tensor count
    per tensor:
        u16     name length, then UTF-8 name
        u8      dtype (0=float32, 1=float64)
        u8      ndim, then u32 x ndim shape
    payload:
        each tensor's values at its own dtype, in header order
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CheckpointError

_MAGIC = b"FMPS"
_FORMAT_VERSION = 3
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))


class NamedParamSet:
    """Immutable, lexicographically ordered map of tensor name -> array."""

    def __init__(self, tensors: Mapping[str, np.ndarray]):
        self._values: dict[str, np.ndarray] = {name: tensors[name] for name in sorted(tensors)}

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._values)

    def values(self, name: str) -> np.ndarray:
        return self._values[name]

    def filter(self, predicate: Callable[[str], bool]) -> "NamedParamSet":
        return NamedParamSet({n: v for n, v in self._values.items() if predicate(n)})

    def replace_values(self, updates: Mapping[str, np.ndarray]) -> "NamedParamSet":
        """New set with some tensors' values replaced. The caller gives names
        the set holds, each at its shape; neither is checked."""
        return NamedParamSet({**self._values, **updates})


def count_params(pset: NamedParamSet, names: Iterable[str] | None = None) -> int:
    """Total number of scalar parameters, or of the tensors ``names`` only."""
    return sum(pset.values(n).size for n in (pset.names if names is None else names))


def save_param_set(pset: NamedParamSet, path: str | Path) -> None:
    """Write the set in the binary checkpoint format; each tensor keeps its
    dtype (float32 or float64)."""
    parts = [
        _MAGIC,
        struct.pack("<I", _FORMAT_VERSION),
        struct.pack("<I", len(pset)),
    ]
    for name in pset.names:
        values = pset.values(name)
        if values.dtype not in _DTYPES:
            raise CheckpointError(f"{name}: cannot store dtype {values.dtype}")
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<BB", _DTYPES.index(values.dtype), values.ndim))
        parts.append(struct.pack(f"<{values.ndim}I", *values.shape))
    for name in pset.names:
        parts.append(np.ascontiguousarray(pset.values(name)).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_param_set(path: str | Path) -> NamedParamSet:
    """Read a binary checkpoint written by :func:`save_param_set`; every
    tensor comes back at the dtype it was saved with.

    A file that is not a checkpoint, has another format version, names a
    tensor twice, or is cut short in its header or payload raises
    :class:`CheckpointError`.
    """
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: not a parameter checkpoint (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", data, 4)
        if version != _FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (count,) = struct.unpack_from("<I", data, 8)
        offset = 12
        headers = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            offset += 2
            name = data[offset : offset + name_len].decode("utf-8")
            offset += name_len
            dtype_idx, ndim = struct.unpack_from("<BB", data, offset)
            offset += 2
            shape = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            headers.append((name, shape, _DTYPES[dtype_idx]))
    except (struct.error, UnicodeDecodeError, IndexError) as err:
        raise CheckpointError(f"{path}: truncated or corrupt header ({err})") from err
    sizes = [int(np.prod(shape, dtype=np.int64)) for _, shape, _ in headers]
    needed = sum(size * dtype.itemsize for (*_, dtype), size in zip(headers, sizes))
    if len(data) - offset != needed:
        raise CheckpointError(
            f"{path}: payload is {len(data) - offset} bytes, header needs {needed}"
        )
    tensors = {}
    for (name, shape, dtype), size in zip(headers, sizes):
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        values = np.frombuffer(data, dtype=dtype, count=size, offset=offset).astype(dtype.name)
        offset += dtype.itemsize * size
        tensors[name] = values.reshape(shape)
    return NamedParamSet(tensors)
