"""Shared strict/lenient JSONL parsing machinery.

Every log reader in the repo (DHCP, DNS, wire) is the same loop:
strip the line, skip-and-count blanks, parse, and either raise a
structured :class:`~repro.reliability.errors.RecordError` (strict mode)
or quarantine the line and continue (lenient mode). This module is that
loop, written once.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from repro.reliability.errors import CATEGORY_JSON, CATEGORY_VALUE, RecordError
from repro.reliability.quarantine import QuarantineSink

#: The two parse modes accepted by every reader.
MODE_STRICT = "strict"
MODE_LENIENT = "lenient"

#: Whatever record type a reader's ``parse`` callback produces.
RecordT = TypeVar("RecordT")


def parse_json_object(line: str, *, source: str,
                      line_no: Optional[int] = None) -> dict:
    """Decode one JSONL line into a dict; raises :class:`RecordError`."""
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise RecordError(
            f"{source} record is not valid JSON: {exc}", source=source,
            category=CATEGORY_JSON, line_no=line_no, line=line) from exc
    if not isinstance(payload, dict):
        raise RecordError(
            f"{source} record is not a JSON object "
            f"({type(payload).__name__})", source=source,
            category=CATEGORY_JSON, line_no=line_no, line=line)
    return payload


def require_finite(record: RecordT, fields: Sequence[str], *,
                   source: str, line_no: Optional[int] = None,
                   line: Optional[str] = None,
                   nonnegative: Sequence[str] = ()) -> RecordT:
    """Return ``record``, or raise when a numeric field is not finite.

    ``json`` reads ``NaN`` and ``Infinity`` and ``float`` reads
    ``"nan"`` and ``"inf"``, so a parsed time can be NaN. A NaN time
    compares false against every order guard downstream and would
    switch it off, so each parser refuses one here as a
    :class:`RecordError` of category ``value``. Fields listed in
    ``nonnegative`` must also be at least 0.
    """
    for name in fields:
        value = getattr(record, name)
        if not math.isfinite(value) or (name in nonnegative and value < 0):
            raise RecordError(
                f"{source} record field {name!r} is not a finite"
                f"{' non-negative' if name in nonnegative else ''} "
                f"number: {value!r}", source=source,
                category=CATEGORY_VALUE, line_no=line_no, line=line)
    return record


def read_jsonl_records(lines: Iterable[str],
                       parse: Callable[[str, int], RecordT], *,
                       source: str,
                       mode: str = MODE_STRICT,
                       sink: Optional[QuarantineSink] = None,
                       ) -> Iterator[RecordT]:
    """The one strict/lenient line loop behind every log reader.

    ``parse`` is ``(line, line_no) -> record`` raising
    :class:`RecordError` on malformed input. Blank/whitespace-only
    lines are skipped in both modes and counted when a ``sink`` is
    given -- a partially flushed log file must never abort a run.
    """
    if mode not in (MODE_STRICT, MODE_LENIENT):
        raise ValueError(f"unknown parse mode: {mode!r}")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            if sink is not None:
                sink.add_blank(source, line_no)
            continue
        try:
            yield parse(line, line_no)
        except RecordError as exc:
            if mode == MODE_STRICT:
                raise
            if sink is not None:
                sink.add(exc)
