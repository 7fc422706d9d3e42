"""JSONL serialization of connection records.

Parsing has two modes (shared by every log reader in the repo):

* **strict** (default) -- a malformed line raises a structured
  :class:`~repro.reliability.errors.RecordError` naming the stream,
  category and line number;
* **lenient** -- malformed lines are routed to a
  :class:`~repro.reliability.quarantine.QuarantineSink` and parsing
  continues, so one corrupt record cannot abort a multi-hour ingest.

Blank/whitespace-only lines (partially flushed log files end with them)
are skipped and counted in both modes, never raised.
"""

from __future__ import annotations

import json
from typing import IO, Iterable, Iterator, Optional

from repro.net.ip import int_to_ip, ip_to_int
from repro.reliability.errors import (
    CATEGORY_FIELD,
    CATEGORY_VALUE,
    RecordError,
)
from repro.reliability.parsing import (
    parse_json_object,
    read_jsonl_records,
    require_finite,
)
from repro.reliability.quarantine import QuarantineSink
from repro.zeek.conn import ConnRecord

_SOURCE = "conn"


def conn_to_json(record: ConnRecord) -> str:
    """Serialize one connection record."""
    payload = {
        "uid": record.uid,
        "ts": record.ts,
        "duration": record.duration,
        "orig_h": int_to_ip(record.orig_h),
        "orig_p": record.orig_p,
        "resp_h": int_to_ip(record.resp_h),
        "resp_p": record.resp_p,
        "proto": record.proto,
        "orig_bytes": record.orig_bytes,
        "resp_bytes": record.resp_bytes,
    }
    if record.user_agent is not None:
        payload["user_agent"] = record.user_agent
    if record.http_host is not None:
        payload["http_host"] = record.http_host
    return json.dumps(payload)


def conn_from_json(line: str, line_no: Optional[int] = None) -> ConnRecord:
    """Parse one connection record; raises :class:`RecordError`."""
    payload = parse_json_object(line, source=_SOURCE, line_no=line_no)
    try:
        record = ConnRecord(
            uid=int(payload["uid"]),
            ts=float(payload["ts"]),
            duration=float(payload["duration"]),
            orig_h=ip_to_int(payload["orig_h"]),
            orig_p=int(payload["orig_p"]),
            resp_h=ip_to_int(payload["resp_h"]),
            resp_p=int(payload["resp_p"]),
            proto=str(payload["proto"]),
            orig_bytes=int(payload["orig_bytes"]),
            resp_bytes=int(payload["resp_bytes"]),
            user_agent=payload.get("user_agent"),
            http_host=payload.get("http_host"),
        )
    except KeyError as exc:
        raise RecordError(
            f"conn record missing field {exc}", source=_SOURCE,
            category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
    except (TypeError, ValueError) as exc:
        raise RecordError(
            f"conn record has a bad value: {exc}", source=_SOURCE,
            category=CATEGORY_VALUE, line_no=line_no, line=line) from exc
    return require_finite(record, ("ts", "duration"), source=_SOURCE,
                          line_no=line_no, line=line)


def write_conn_log(records: Iterable[ConnRecord], fileobj: IO[str]) -> int:
    """Serialize records as JSONL; returns the number written."""
    count = 0
    for record in records:
        fileobj.write(conn_to_json(record))
        fileobj.write("\n")
        count += 1
    return count


def read_conn_log(fileobj: IO[str], *, mode: str = "strict",
                  sink: Optional[QuarantineSink] = None,
                  ) -> Iterator[ConnRecord]:
    """Parse a JSONL connection log.

    Blank lines are skipped (and counted when a ``sink`` is given) in
    both modes; see the module docstring for strict vs. lenient.
    """
    yield from read_jsonl_records(fileobj, conn_from_json, source=_SOURCE,
                                  mode=mode, sink=sink)
