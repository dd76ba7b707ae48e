"""Shared exception types and the default resource limits."""

# Default bounds; a caller may always pass a larger one explicitly.
DEFAULT_MAX_LEVEL = 14  # levels the library enumerates diagrams or paths at
DEFAULT_MAX_K = 14      # the CLI's --max-k
DEFAULT_MAX_N = 10      # the CLI's --max-n


class ResourceLimitError(Exception):
    """Raised when a computation is refused because it exceeds a stated bound.

    The CLI maps this to exit code 3; raising the bound explicitly is always
    possible, refusal is never silent truncation.
    """


class InternalCheckError(Exception):
    """Raised when two routes that must agree (production vs oracle) diverge."""
