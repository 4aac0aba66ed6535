"""Helpers shared by the test modules."""

from fedmt.model import ToyModel
from fedmt.params import NamedParamSet


def with_trainable(model: ToyModel) -> ToyModel:
    """The model with every tensor it holds, backbone included, trainable."""
    return model.with_params(NamedParamSet(t.with_trainable(True) for t in model.params))
