"""Shared exception types, the default resource limits and their guards."""

# Default bounds; a caller may always pass a larger one explicitly.
DEFAULT_MAX_LEVEL = 14  # levels enumerated (diagrams, paths); CLI --max-k
DEFAULT_MAX_N = 10      # the CLI's --max-n


class ResourceLimitError(Exception):
    """Raised when a computation is refused because it exceeds a stated bound.

    The CLI maps this to exit code 3; raising the bound explicitly is always
    possible, refusal is never silent truncation.
    """


class InternalCheckError(Exception):
    """Raised when two routes that must agree (production vs oracle) diverge."""


def guard(what: str, value: int, bound_name: str, bound: int | None) -> None:
    """Refuse a value above its bound; a bound of None admits any value."""
    if bound is not None and value > bound:
        raise ResourceLimitError(f"{what} {value} exceeds {bound_name} "
                                 f"{bound}; raise the bound explicitly")
