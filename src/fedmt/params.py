"""Named parameter sets: storage, counting, checkpoints.

Every model in the simulator is a :class:`NamedParamSet`: an immutable,
name-ordered map from tensor names to arrays. Which tensors train and
which side of the model each belongs to are read from the model's layout
(``ToyModel.trainable_names``, ``ToyModel.trainable_by_side``), not stored
here. Aggregation averages these sets in
``federation.inner_cluster_aggregate``.

Checkpoint format: a zip archive with one stored (uncompressed) member per
tensor, ``<name>.npy``, in numpy's own ``.npy`` format at the tensor's dtype
(little-endian float32 or float64). ``np.load(path)`` opens one for
inspection. Every member carries zip's CRC-32 of its bytes, which
:func:`load_param_set` checks, so a damaged value is refused, not loaded.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CheckpointError

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
    """Write the set as a checkpoint; each tensor keeps its dtype (float32
    or float64). The bytes depend only on the set: every member carries
    zip's fixed 1980-01-01 timestamp."""
    for name in pset.names:
        dtype = pset.values(name).dtype
        if dtype not in _DTYPES:
            raise CheckpointError(f"{name}: cannot store dtype {dtype}")
    with zipfile.ZipFile(path, "w") as archive:
        for name in pset.names:
            with archive.open(zipfile.ZipInfo(name + ".npy"), "w") as member:
                np.lib.format.write_array(member, pset.values(name), allow_pickle=False)


def load_param_set(path: str | Path) -> NamedParamSet:
    """Read a checkpoint written by :func:`save_param_set`; every tensor
    comes back at the dtype it was saved with.

    A file that is not a zip archive, a member that fails its CRC-32, is
    compressed, is not an ``.npy`` array or holds a dtype other than
    float32 or float64, and a tensor named twice raise
    :class:`CheckpointError`.
    """
    tensors = {}
    try:
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                name = info.filename.removesuffix(".npy")
                if name == info.filename or info.compress_type != zipfile.ZIP_STORED:
                    raise CheckpointError(f"{path}: {info.filename!r} is not a stored .npy member")
                if name in tensors:
                    raise CheckpointError(f"{path}: tensor {name!r} appears twice")
                values = np.lib.format.read_array(io.BytesIO(archive.read(info)),
                                                  allow_pickle=False)
                if values.dtype not in _DTYPES:
                    raise CheckpointError(f"{path}: tensor {name!r} has dtype {values.dtype}")
                tensors[name] = values
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, ValueError, MemoryError) as err:
        # what zipfile and numpy's .npy reader raise on a damaged file
        raise CheckpointError(
            f"{path}: not a readable checkpoint ({type(err).__name__}: {err})") from err
    return NamedParamSet(tensors)
