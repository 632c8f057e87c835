"""Exception types shared across the toolkit."""


class RelayError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(RelayError):
    """Malformed or contract-violating input (CLI exit code 1)."""


class ResourceLimitError(RelayError):
    """Request past a resource limit, such as the memory budget (CLI exit code 3)."""


class ExpurgationError(RelayError):
    """Message-set expurgation attempted without its average-error precondition."""
