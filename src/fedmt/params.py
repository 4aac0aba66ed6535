"""Named parameter sets: storage, counting, payload sizes, checkpoints.

Every model in the simulator is a :class:`NamedParamSet`: an immutable,
name-ordered collection of tensors, each tagged with a side (``encoder``,
``decoder``, or ``shared``) and a trainable flag. Aggregation averages
these sets in ``federation.inner_cluster_aggregate``.

Binary checkpoint format (little-endian):

    magic   b"FMPS"
    u32     format version (1)
    u32     tensor count
    per tensor:
        u16     name length, then UTF-8 name
        u8      side (0=encoder, 1=decoder, 2=shared)
        u8      trainable flag
        u8      ndim, then u32 x ndim shape
    payload:
        float32 values for each tensor, in header order
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import CheckpointError, StructuralMismatchError

SIDES = ("encoder", "decoder", "shared")

COUNT_FILTERS = ("all", "trainable_only", "side=encoder", "side=decoder")

_MAGIC = b"FMPS"
_FORMAT_VERSION = 1


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

    def get(self, name: str) -> ParamTensor | None:
        return self._tensors.get(name)

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

    def map_values(self, fn: Callable[[ParamTensor], np.ndarray]) -> "NamedParamSet":
        return NamedParamSet(t.with_values(fn(t)) for t in self)

    def astype(self, dtype) -> "NamedParamSet":
        return NamedParamSet(t.with_values(t.values.astype(dtype)) for t in self)

    def equals(self, other: "NamedParamSet") -> bool:
        """Bitwise equality of structure and values."""
        if not self.compatible_with(other):
            return False
        return all(
            a.trainable == b.trainable and np.array_equal(a.values, b.values)
            for a, b in zip(self, other)
        )


def _passes(tensor: ParamTensor, filter: str) -> bool:
    if filter == "all":
        return True
    if filter == "trainable_only":
        return tensor.trainable
    if filter == "side=encoder":
        return tensor.side == "encoder"
    if filter == "side=decoder":
        return tensor.side == "decoder"
    raise ValueError(f"unknown filter {filter!r}; expected one of {COUNT_FILTERS}")


def count_params(pset: NamedParamSet, filter: str = "all") -> int:
    """Total number of scalar parameters passing the filter."""
    return sum(t.size for t in pset if _passes(t, filter))


@dataclass(frozen=True)
class CommPayloadSpec:
    """Size of one parameter transfer. Reporting uses decimal units (1 GB = 1e9 B)."""

    param_count: int
    bytes_per_param: int
    total_bytes: int

    @property
    def gigabytes(self) -> float:
        return self.total_bytes / 1e9

    @property
    def megabytes(self) -> float:
        return self.total_bytes / 1e6


def payload(
    pset_or_count: NamedParamSet | int,
    filter: str = "trainable_only",
    bytes_per_param: int = 4,
) -> CommPayloadSpec:
    """Byte size of the filtered parameters at the given precision (FP32 default)."""
    if bytes_per_param <= 0:
        raise ValueError("bytes_per_param must be > 0")
    if isinstance(pset_or_count, NamedParamSet):
        count = count_params(pset_or_count, filter)
    else:
        count = int(pset_or_count)
        if count < 0:
            raise ValueError("param count must be >= 0")
    return CommPayloadSpec(count, bytes_per_param, count * bytes_per_param)


def save_param_set(pset: NamedParamSet, path: str | Path) -> None:
    """Write the set in the binary checkpoint format (FP32 payload)."""
    parts = [
        _MAGIC,
        struct.pack("<I", _FORMAT_VERSION),
        struct.pack("<I", len(pset)),
    ]
    for t in pset:
        name_bytes = t.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<BBB", SIDES.index(t.side), int(t.trainable), t.values.ndim))
        parts.append(struct.pack(f"<{t.values.ndim}I", *t.shape))
    for t in pset:
        parts.append(np.ascontiguousarray(t.values, dtype="<f4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_param_set(path: str | Path, dtype=np.float64) -> NamedParamSet:
    """Read a binary checkpoint written by :func:`save_param_set`.

    A file that is not a checkpoint, has an unknown version, or is cut
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
            side_idx, trainable, ndim = struct.unpack_from("<BBB", data, offset)
            offset += 3
            shape = struct.unpack_from(f"<{ndim}I", data, offset)
            offset += 4 * ndim
            headers.append((name, shape, SIDES[side_idx], bool(trainable)))
    except (struct.error, UnicodeDecodeError, IndexError) as err:
        raise CheckpointError(f"{path}: truncated or corrupt header ({err})") from err
    sizes = [int(np.prod(shape, dtype=np.int64)) for _, shape, _, _ in headers]
    if len(data) - offset != 4 * sum(sizes):
        raise CheckpointError(
            f"{path}: payload is {len(data) - offset} bytes, header needs {4 * sum(sizes)}"
        )
    tensors = []
    for (name, shape, side, trainable), size in zip(headers, sizes):
        values = np.frombuffer(data, dtype="<f4", count=size, offset=offset).astype(dtype)
        offset += 4 * size
        tensors.append(ParamTensor(name, values.reshape(shape), trainable, side))
    return NamedParamSet(tensors)
