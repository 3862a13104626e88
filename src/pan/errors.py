"""Exception types shared across the package, and the two checks every
setting goes through: ``check_range`` and ``check_choice``."""

import math


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A precondition on arguments was violated."""


class NumericError(RuntimeError):
    """A computation produced or encountered non-finite values."""


class SamplingError(RuntimeError):
    """A random sampling routine cannot satisfy its request."""


class GenerationError(RuntimeError):
    """A dataset generator cannot satisfy its request."""


class BundleFormatError(ValueError):
    """A dataset file failed to parse or cross-file consistency checks."""


def check_range(name: str, value, low, high=math.inf, *, above: bool = False):
    """``value`` if ``low <= value < high`` (``low < value < high`` when
    ``above``), else ContractError naming ``name``, the range and the value.
    NaN fails every range, and an infinite value every range with no top."""
    if (low < value if above else low <= value) and value < high:
        return value
    if high == math.inf:
        rule = f"finite and {'>' if above else '>='} {low}"
    else:
        rule = f"in {'(' if above else '['}{low}, {high})"
    raise ContractError(f"{name} must be {rule}, got {value}")


def check_choice(name: str, value, choices) -> None:
    """ContractError naming ``name``, the choices and the value, unless
    ``value`` is one of ``choices``."""
    if value not in choices:
        raise ContractError(f"{name} must be one of {', '.join(map(repr, choices))}, "
                            f"got {value!r}")
