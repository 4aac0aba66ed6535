"""Named parameter sets: storage, counting, checkpoints.

Every model in the simulator is a :class:`NamedParamSet`: an immutable,
name-ordered collection of tensors, each tagged with a side (``encoder``,
``decoder``, or ``shared``) and a trainable flag. Aggregation averages
these sets in ``federation.inner_cluster_aggregate``.

Binary checkpoint format (little-endian):

    magic   b"FMPS"
    u32     format version (2)
    u32     tensor count
    per tensor:
        u16     name length, then UTF-8 name
        u8      side (0=encoder, 1=decoder, 2=shared)
        u8      trainable flag
        u8      dtype (0=float32, 1=float64)
        u8      ndim, then u32 x ndim shape
    payload:
        each tensor's values at its own dtype, in header order
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CheckpointError, StructuralMismatchError

SIDES = ("encoder", "decoder", "shared")

_MAGIC = b"FMPS"
_FORMAT_VERSION = 2
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"))


@dataclass(frozen=True)
class ParamTensor:
    """One named tensor with a side tag and a trainable flag."""

    name: str
    values: np.ndarray
    trainable: bool
    side: str

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"unknown side tag {self.side!r} for tensor {self.name!r}")
        if not isinstance(self.values, np.ndarray):
            object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.values.shape)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def with_values(self, values: np.ndarray) -> "ParamTensor":
        values = np.asarray(values)
        if values.shape != self.values.shape:
            raise StructuralMismatchError(
                f"tensor {self.name!r}: shape {values.shape} != {self.values.shape}"
            )
        return ParamTensor(self.name, values, self.trainable, self.side)

    def with_trainable(self, trainable: bool) -> "ParamTensor":
        return ParamTensor(self.name, self.values, trainable, self.side)


class NamedParamSet:
    """Immutable, lexicographically ordered map of tensor name -> ParamTensor.

    Two sets are aggregation-compatible iff they hold the same names with
    the same shapes and side tags.
    """

    def __init__(self, tensors: Iterable[ParamTensor]):
        ordered = sorted(tensors, key=lambda t: t.name)
        names = [t.name for t in ordered]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate tensor names: {dupes}")
        self._tensors: dict[str, ParamTensor] = {t.name: t for t in ordered}

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self) -> Iterator[ParamTensor]:
        return iter(self._tensors.values())

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __getitem__(self, name: str) -> ParamTensor:
        return self._tensors[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors.keys())

    def values(self, name: str) -> np.ndarray:
        return self._tensors[name].values

    def filter(self, predicate: Callable[[ParamTensor], bool]) -> "NamedParamSet":
        return NamedParamSet(t for t in self if predicate(t))

    def compatible_with(self, other: "NamedParamSet") -> bool:
        if self.names != other.names:
            return False
        return all(
            a.shape == b.shape and a.side == b.side
            for a, b in zip(self, other)
        )

    def replace_values(self, updates: Mapping[str, np.ndarray]) -> "NamedParamSet":
        """New set with some tensors' values replaced (shapes must match)."""
        unknown = set(updates) - set(self._tensors)
        if unknown:
            raise KeyError(f"unknown tensor names: {sorted(unknown)}")
        return NamedParamSet(
            t.with_values(updates[t.name]) if t.name in updates else t for t in self
        )

    def equals(self, other: "NamedParamSet") -> bool:
        """Bitwise equality of structure and values."""
        if not self.compatible_with(other):
            return False
        return all(
            a.trainable == b.trainable and np.array_equal(a.values, b.values)
            for a, b in zip(self, other)
        )


def count_params(pset: NamedParamSet, *, trainable_only: bool = False) -> int:
    """Total number of scalar parameters, or of trainable ones only."""
    return sum(t.size for t in pset if t.trainable or not trainable_only)


def save_param_set(pset: NamedParamSet, path: str | Path) -> None:
    """Write the set in the binary checkpoint format; each tensor keeps its
    dtype (float32 or float64)."""
    parts = [
        _MAGIC,
        struct.pack("<I", _FORMAT_VERSION),
        struct.pack("<I", len(pset)),
    ]
    for t in pset:
        if t.values.dtype not in _DTYPES:
            raise CheckpointError(f"{t.name}: cannot store dtype {t.values.dtype}")
        name_bytes = t.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<BBBB", SIDES.index(t.side), int(t.trainable),
                                 _DTYPES.index(t.values.dtype), t.values.ndim))
        parts.append(struct.pack(f"<{t.values.ndim}I", *t.shape))
    for t in pset:
        parts.append(np.ascontiguousarray(t.values).tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_param_set(path: str | Path) -> NamedParamSet:
    """Read a binary checkpoint written by :func:`save_param_set`; every
    tensor comes back at the dtype it was saved with.

    A file that is not a checkpoint, has another format version, or is cut
    short in its header or payload raises :class:`CheckpointError`.
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
            side_idx, trainable, dtype_idx, ndim = struct.unpack_from("<BBBB", data, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            headers.append((name, shape, SIDES[side_idx], bool(trainable), _DTYPES[dtype_idx]))
    except (struct.error, UnicodeDecodeError, IndexError) as err:
        raise CheckpointError(f"{path}: truncated or corrupt header ({err})") from err
    sizes = [int(np.prod(shape, dtype=np.int64)) for _, shape, _, _, _ in headers]
    needed = sum(size * dtype.itemsize for (*_, dtype), size in zip(headers, sizes))
    if len(data) - offset != needed:
        raise CheckpointError(
            f"{path}: payload is {len(data) - offset} bytes, header needs {needed}"
        )
    tensors = []
    for (name, shape, side, trainable, dtype), size in zip(headers, sizes):
        values = np.frombuffer(data, dtype=dtype, count=size, offset=offset).astype(dtype.name)
        offset += dtype.itemsize * size
        tensors.append(ParamTensor(name, values.reshape(shape), trainable, side))
    return NamedParamSet(tensors)
