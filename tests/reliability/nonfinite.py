"""Shared cases for the log parsers' non-finite number checks.

``json`` reads ``NaN`` and ``Infinity``, and ``float`` reads ``"nan"``
and ``"inf"``, so each of these reaches a parser as a float that is
not finite.
"""

import io
import json

import pytest

from repro.reliability.errors import CATEGORY_VALUE, RecordError
from repro.reliability.parsing import read_jsonl_records
from repro.reliability.quarantine import QuarantineSink

#: Raw JSON values that parse to a non-finite float.
NON_FINITE = ("NaN", "Infinity", "-Infinity", '"nan"', '"inf"', '"-inf"')


def with_raw_value(line: str, field: str, raw: str) -> str:
    """``line`` with ``field`` set to the raw JSON text ``raw``."""
    return json.dumps({**json.loads(line), field: "@@"}).replace('"@@"', raw)


def assert_refused_once(parse, good: str, bad: str, source: str) -> None:
    """Reading ``good`` then ``bad`` with the line parser ``parse``:
    strict raises a ``value`` RecordError naming line 2; lenient keeps
    the good line and quarantines the bad one exactly once."""
    text = f"{good}\n{bad}\n"
    with pytest.raises(RecordError) as info:
        list(read_jsonl_records(io.StringIO(text), parse, source=source))
    assert (info.value.source, info.value.category, info.value.line_no,
            info.value.line) == (source, CATEGORY_VALUE, 2, bad)
    sink = QuarantineSink()
    kept = list(read_jsonl_records(io.StringIO(text), parse, source=source,
                                   mode="lenient", sink=sink))
    assert len(kept) == 1
    assert sink.counts == {(source, CATEGORY_VALUE): 1}
