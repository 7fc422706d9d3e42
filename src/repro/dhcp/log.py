"""DHCP log records and JSONL serialization.

The measurement pipeline reconstructs IP->MAC history exclusively from
these records, so they carry exactly what a DHCP server's ACK log line
does: when, which MAC, which IP, and until when the binding holds.

``to_json``/``from_json`` is the log's one codec: :mod:`repro.io.tracedir`
reads a log file by passing ``from_json`` to
:func:`~repro.reliability.parsing.read_jsonl_records`. Parsing follows
the repo-wide strict/lenient contract: strict raises a structured
:class:`~repro.reliability.errors.RecordError`; lenient quarantines the
line and continues; blank lines are skipped and counted in both modes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from repro.net.ip import int_to_ip, ip_to_int
from repro.net.mac import MacAddress
from repro.reliability.errors import (
    CATEGORY_FIELD,
    CATEGORY_VALUE,
    RecordError,
)
from repro.reliability.parsing import parse_json_object, require_finite

_SOURCE = "dhcp"


@dataclass(frozen=True)
class DhcpLogRecord:
    """One DHCPACK: ``mac`` holds ``ip`` from ``ts`` until ``lease_end``.

    Renewals appear as additional ACKs with a later ``lease_end``.
    """

    ts: float
    mac: MacAddress
    ip: int
    lease_end: float

    def to_json(self) -> str:
        return json.dumps({
            "ts": self.ts,
            "mac": str(self.mac),
            "ip": int_to_ip(self.ip),
            "lease_end": self.lease_end,
        })

    @classmethod
    def from_json(cls, line: str,
                  line_no: Optional[int] = None) -> "DhcpLogRecord":
        payload = parse_json_object(line, source=_SOURCE, line_no=line_no)
        try:
            record = cls(
                ts=float(payload["ts"]),
                mac=MacAddress.parse(payload["mac"]),
                ip=ip_to_int(payload["ip"]),
                lease_end=float(payload["lease_end"]),
            )
        except KeyError as exc:
            raise RecordError(
                f"dhcp record missing field {exc}", source=_SOURCE,
                category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
        except (TypeError, ValueError) as exc:
            raise RecordError(
                f"dhcp record has a bad value: {exc}", source=_SOURCE,
                category=CATEGORY_VALUE, line_no=line_no, line=line) from exc
        return require_finite(record, ("ts", "lease_end"), source=_SOURCE,
                              line_no=line_no, line=line)
