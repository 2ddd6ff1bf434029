"""Dataset profiling: column type inference and context construction.

The profiler reads a delimited text file with a header row, infers a coarse
type per column from a bounded value sample, buckets the row count, and
assembles a :class:`ContextDescriptor`. Fields that cannot be read off the
data (domain, provenance, governance) stay empty unless an overlay supplies
them.
"""
from __future__ import annotations

import csv
import logging
import re
from datetime import date
from pathlib import Path
from typing import Iterable

from .contexts import AttributeType, ContextDescriptor, context_from_dict, size_bucket_for_rows
from .errors import InputError, parse_number

logger = logging.getLogger(__name__)

# non-empty values per column that type inference reads
SAMPLE_CAP = 10_000

# share of sampled values that must agree before a column gets a non-text type
TYPE_AGREEMENT = 0.95

_ISO_DATE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_ISO_DATETIME = re.compile(
    r"^(\d{4}-\d{2}-\d{2})[T ]\d{2}:\d{2}(:\d{2}(\.\d{1,6})?)?(Z|[+-]\d{2}:?\d{2})?$"
)
_SLASH_DATE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
_SLASH_DATE_YMD = re.compile(r"^\d{4}/(\d{1,2})/(\d{1,2})$")


def _is_number(value: str) -> bool:
    try:
        parse_number(value)
    except ValueError:
        return False
    return True


def _is_date(value: str) -> bool:
    """Accepts ISO-8601 dates/datetimes and slash dates in either day/month order."""
    v = value.strip()
    if _ISO_DATE.match(v):
        try:
            date.fromisoformat(v)
        except ValueError:
            return False
        return True
    m = _ISO_DATETIME.match(v)
    if m:
        try:
            date.fromisoformat(m.group(1))
        except ValueError:
            return False
        return True
    m = _SLASH_DATE.match(v)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        # plausible as DD/MM or MM/DD; the ambiguity is deliberately not resolved
        return (1 <= a <= 31 and 1 <= b <= 12) or (1 <= a <= 12 and 1 <= b <= 31)
    m = _SLASH_DATE_YMD.match(v)
    if m:
        return 1 <= int(m.group(1)) <= 12 and 1 <= int(m.group(2)) <= 31
    return False


def infer_attribute_type(values: Iterable[str]) -> AttributeType:
    """Type of a column from up to ``SAMPLE_CAP`` non-empty values.

    Numeric wins if at least 95% of the sample parses as a real number,
    then date by the same rule over the accepted patterns; otherwise text.
    An all-empty column degrades to text with a logged warning.
    """
    sample: list[str] = []
    for v in values:
        if v.strip() == "":
            continue
        sample.append(v)
        if len(sample) >= SAMPLE_CAP:
            break
    if not sample:
        logger.warning("all values empty; defaulting attribute type to text")
        return AttributeType.TEXT
    n = len(sample)
    if sum(_is_number(v) for v in sample) / n >= TYPE_AGREEMENT:
        return AttributeType.NUMERIC
    if sum(_is_date(v) for v in sample) / n >= TYPE_AGREEMENT:
        return AttributeType.DATE
    return AttributeType.TEXT


def profile_dataset(
    data_path: str | Path,
    overlay: dict,
    *,
    delimiter: str = ",",
) -> ContextDescriptor:
    """Profile a delimited file into a context descriptor.

    ``overlay`` is a context document without ``attributes``: it must name
    the ``context_id`` and may set any other context field, which then
    overrides the inferred value (a null field is left as inferred).

    Streams the file once: the row count is exact while per-column type
    samples are capped at ``SAMPLE_CAP`` values, so memory stays bounded.
    """
    if "attributes" in overlay:
        raise InputError("overlay cannot set attributes: profiling infers them")
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise InputError(f"delimiter must be one character, got {delimiter!r}")
    p = Path(data_path)
    if not p.is_file():
        raise InputError(f"no such file: {p}")
    try:
        with open(p, newline="", encoding="utf-8-sig") as f:
            reader = csv.reader(f, delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise InputError(f"{p}: empty file, expected a header row")
            names = [h.strip() for h in header]
            if any(not name for name in names):
                raise InputError(f"{p}: header contains an empty column name")
            if len(names) != len(set(names)):
                raise InputError(f"{p}: duplicate column names in header")

            samples: list[list[str]] = [[] for _ in names]
            n_rows = 0
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(names):
                    raise InputError(
                        f"{p}:{lineno}: row has {len(row)} fields, header has {len(names)}"
                    )
                n_rows += 1
                for col, value in enumerate(row):
                    bucket = samples[col]
                    if len(bucket) < SAMPLE_CAP and value.strip() != "":
                        bucket.append(value)
    except UnicodeDecodeError:
        raise InputError(f"{p}: not UTF-8 text") from None

    doc = {
        "data_type": "structured",
        "size_bucket": size_bucket_for_rows(n_rows),
        "file_format": p.suffix.lstrip(".").lower(),
        **{k: v for k, v in overlay.items() if v is not None},
        "attributes": [
            {"name": name, "type": infer_attribute_type(samples[i])}
            for i, name in enumerate(names)
        ],
    }
    return context_from_dict(doc)
