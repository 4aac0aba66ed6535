"""Exception types shared across the package."""


class FedmtError(Exception):
    """Base class for all package errors."""


class StructuralMismatchError(FedmtError, ValueError):
    """Parameter sets are not aggregation-compatible."""


class ConfigurationError(FedmtError, ValueError):
    """Invalid configuration value or combination."""


class NumericError(FedmtError, ArithmeticError):
    """Non-finite value encountered during forward/backward."""


class DegenerateFeatureError(FedmtError, ValueError):
    """A clustering feature vector has zero norm."""


class PartitionError(FedmtError, ValueError):
    """A cluster assignment is not a valid partition of the client set."""


class CheckpointError(FedmtError, ValueError):
    """A parameter checkpoint file is malformed or cut short."""
