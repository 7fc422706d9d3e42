"""HTTP metadata records (Zeek's http.log, reduced to what we use).

On plaintext HTTP connections the tap can read the request's Host
header and User-Agent. Zeek surfaces these in http.log keyed to the
connection; the flow engine here does the same, and the pipeline uses
them two ways:

* the Host header annotates flows whose server IP never appeared in
  DNS logs (a second, DNS-independent annotation path);
* the User-Agent feeds device classification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Optional

from repro.net.ip import int_to_ip, ip_to_int
from repro.reliability.parsing import require_finite


@dataclass(frozen=True)
class HttpRecord:
    """One observed HTTP request's metadata."""

    ts: float
    orig_h: int
    orig_p: int
    resp_h: int
    resp_p: int
    host: Optional[str]
    user_agent: Optional[str]

    def to_json(self) -> str:
        payload = {
            "ts": self.ts,
            "orig_h": int_to_ip(self.orig_h),
            "orig_p": self.orig_p,
            "resp_h": int_to_ip(self.resp_h),
            "resp_p": self.resp_p,
        }
        if self.host is not None:
            payload["host"] = self.host
        if self.user_agent is not None:
            payload["user_agent"] = self.user_agent
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str) -> "HttpRecord":
        payload = json.loads(line)
        return require_finite(cls(
            ts=float(payload["ts"]),
            orig_h=ip_to_int(payload["orig_h"]),
            orig_p=int(payload["orig_p"]),
            resp_h=ip_to_int(payload["resp_h"]),
            resp_p=int(payload["resp_p"]),
            host=payload.get("host"),
            user_agent=payload.get("user_agent"),
        ), ("ts",), source="http", line=line)


def write_http_log(records: Iterable[HttpRecord], fileobj: IO[str]) -> int:
    """Serialize records as JSONL; returns the number written."""
    count = 0
    for record in records:
        fileobj.write(record.to_json())
        fileobj.write("\n")
        count += 1
    return count


def read_http_log(fileobj: IO[str]) -> Iterator[HttpRecord]:
    """Parse a JSONL http log, skipping blank lines."""
    for line in fileobj:
        line = line.strip()
        if line:
            yield HttpRecord.from_json(line)
