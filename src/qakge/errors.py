"""Exception hierarchy shared across the package.

Two broad families matter to callers: :class:`InputError` covers anything
wrong with user-supplied data or arguments (bad files, bad flags, schema
violations) and maps to CLI exit code 1, while the remaining
:class:`QakgeError` subclasses signal operational failures (diverged
training, no baseline match) and map to exit code 2.

The checkers at the end hold the one rule by which every setting is
checked where it enters: an integer is not a bool, a real is finite, and
the error names the field.
"""
import math
import numbers


class QakgeError(Exception):
    """Base class for all package errors."""


class InputError(QakgeError):
    """Invalid input data, arguments, or configuration."""


class CsvFormatError(InputError):
    """Malformed triple CSV: bad header, arity, or weight."""


class MalformedContextError(InputError):
    """Context subgraph missing required structure (schema, attribute types)."""


class CheckpointError(InputError):
    """Unreadable, corrupted, or version-incompatible checkpoint file."""


class VocabMismatchError(InputError):
    """Checkpoint vocabulary does not match the graph it is applied to."""


class ContextMismatchError(InputError):
    """Plans being compared do not reference the context they are scored against."""


class TrainingDiverged(QakgeError):
    """Loss became non-finite during training.

    Carries enough state to locate the blow-up: epoch, batch index within
    the epoch, and the vocab indices of the offending triples.
    """

    def __init__(self, epoch: int, batch: int, triple_rows: list[int]):
        self.epoch = epoch
        self.batch = batch
        self.triple_rows = triple_rows
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}; "
            f"offending triple rows: {triple_rows[:10]}"
        )


class NoMatchError(QakgeError):
    """No stored context cleared the similarity threshold."""


class ZeroVectorError(QakgeError):
    """Cosine similarity undefined for a zero-norm embedding."""

    def __init__(self, node: str):
        self.node = node
        super().__init__(f"zero-norm embedding for node {node!r}")


def is_integer(value) -> bool:
    """Whether a JSON value is an integer; ``true`` and ``false`` are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether a JSON value is a real number; ``true`` and ``false`` are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def parse_number(text: str) -> float:
    """The real number that a file's cell ``text`` spells, as :func:`float`
    reads it, except that a ``_`` is refused: ``float("5_0")`` is 50.0, but
    no file means a digit separator. Raises ``ValueError``."""
    if "_" in text:
        raise ValueError(f"digit separator in {text!r}")
    return float(text)


def check_integer(name: str, value, low: int) -> None:
    """Raise an :class:`InputError` naming ``name`` unless ``value`` is an
    integer of at least ``low``."""
    if not is_integer(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")


def check_number(name: str, value, low: float, high: float = math.inf, *,
                 above: bool = False) -> None:
    """Raise an :class:`InputError` naming ``name`` unless ``value`` is a
    finite real number in [``low``, ``high``], or in (``low``, ``high``]
    with ``above``."""
    if not is_number(value):
        raise InputError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    if value < low or value > high or (above and value == low):
        if high == math.inf:
            raise InputError(f"{name} must be {'>' if above else '>='} {low}, got {value}")
        raise InputError(f"{name} must lie in {'(' if above else '['}{low}, {high}], got {value}")
