"""Trace-directory layout and (de)serialization.

Layout::

    <root>/manifest.json
    <root>/2020-02-01/wire.jsonl.gz   # segment bursts seen by the tap
    <root>/2020-02-01/dhcp.jsonl.gz   # DHCP ACK log
    <root>/2020-02-01/dns.jsonl.gz    # DNS query log
    <root>/2020-02-02/...

The wire file holds the tap's *input* (pre-exclusion), so replaying a
directory exercises the full measurement path including the mirror's
excluded-network filtering.
"""

from __future__ import annotations

import gzip
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.dhcp.log import DhcpLogRecord
from repro.dns.records import DnsColumns, DnsLogRecord
from repro.net.ip import int_to_ip, ip_to_int
from repro.net.wire import BurstColumns, SegmentBurst
from repro.reliability.atomic import replacing, write_text
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
from repro.util.timeutil import format_day, parse_day

MANIFEST_NAME = "manifest.json"
WIRE_FILE = "wire.jsonl.gz"
DHCP_FILE = "dhcp.jsonl.gz"
DNS_FILE = "dns.jsonl.gz"

#: Format marker in the manifest; bump on breaking changes.
FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceDayFiles:
    """One day's worth of trace files, parsed."""

    day_start: float
    dhcp_records: List[DhcpLogRecord]
    dns_records: DnsColumns
    bursts: BurstColumns


# ---------------------------------------------------------------------------
# Burst serialization (DHCP/DNS serializers live in their packages).

def burst_to_json(burst: SegmentBurst) -> str:
    payload = {
        "ts": burst.ts,
        "ch": int_to_ip(burst.client_ip),
        "cp": burst.client_port,
        "sh": int_to_ip(burst.server_ip),
        "sp": burst.server_port,
        "pr": burst.proto,
        "ob": burst.orig_bytes,
        "rb": burst.resp_bytes,
    }
    if burst.user_agent is not None:
        payload["ua"] = burst.user_agent
    if burst.http_host is not None:
        payload["hh"] = burst.http_host
    if burst.is_final:
        payload["fin"] = 1
    return json.dumps(payload)


def _optional_text(payload: Dict[str, Any], key: str) -> Optional[str]:
    """A header field: absent/null or a string, nothing else."""
    value = payload.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"field {key!r} is not a string: {value!r}")
    return value


def _final_flag(payload: Dict[str, Any]) -> bool:
    """The teardown flag: absent, 0/1 or false/true, nothing else."""
    value = payload.get("fin", 0)
    if not isinstance(value, int) or value not in (0, 1):
        raise ValueError(f"field 'fin' is not 0/1/true/false: {value!r}")
    return bool(value)


def burst_from_json(line: str, line_no: Optional[int] = None) -> SegmentBurst:
    payload = parse_json_object(line, source="wire", line_no=line_no)
    try:
        burst = SegmentBurst(
            ts=float(payload["ts"]),
            client_ip=ip_to_int(payload["ch"]),
            client_port=int(payload["cp"]),
            server_ip=ip_to_int(payload["sh"]),
            server_port=int(payload["sp"]),
            proto=str(payload["pr"]),
            orig_bytes=int(payload["ob"]),
            resp_bytes=int(payload["rb"]),
            user_agent=_optional_text(payload, "ua"),
            http_host=_optional_text(payload, "hh"),
            is_final=_final_flag(payload),
        )
    except KeyError as exc:
        raise RecordError(
            f"wire record missing field {exc}", source="wire",
            category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
    except (TypeError, ValueError) as exc:
        raise RecordError(
            f"wire record has a bad value: {exc}", source="wire",
            category=CATEGORY_VALUE, line_no=line_no, line=line) from exc
    return require_finite(burst, ("ts",), source="wire", line_no=line_no,
                          line=line)


def _write_gz_lines(path: str, lines: Iterable[str]) -> int:
    count = 0
    with replacing(path) as staged:
        with gzip.open(staged, "wt") as fileobj:
            for line in lines:
                fileobj.write(line)
                fileobj.write("\n")
                count += 1
    return count


def _read_gz_records(path: str, parse, source: str, mode: str,
                     sink: Optional[QuarantineSink]) -> list:
    with gzip.open(path, "rt") as fileobj:
        return list(read_jsonl_records(fileobj, parse, source=source,
                                       mode=mode, sink=sink))


# ---------------------------------------------------------------------------
# Export / import.

def export_traces(traces, root: str,
                  extra_manifest: Optional[dict] = None) -> int:
    """Write an iterable of day traces to a directory; returns day count.

    ``traces`` yields objects with ``day_start``, ``dhcp_records``,
    ``dns_records`` and ``bursts`` (e.g.
    :class:`~repro.synth.generator.DayTrace`).
    """
    os.makedirs(root, exist_ok=True)
    days: List[str] = []
    for trace in traces:
        label = format_day(trace.day_start)
        day_dir = os.path.join(root, label)
        os.makedirs(day_dir, exist_ok=True)
        _write_gz_lines(os.path.join(day_dir, DHCP_FILE),
                        (record.to_json()
                         for record in trace.dhcp_records))
        _write_gz_lines(os.path.join(day_dir, DNS_FILE),
                        (record.to_json()
                         for record in trace.dns_records.rows()))
        _write_gz_lines(os.path.join(day_dir, WIRE_FILE),
                        map(burst_to_json, trace.bursts.rows()))
        days.append(label)

    manifest = {
        "format_version": FORMAT_VERSION,
        "days": days,
        **(extra_manifest or {}),
    }
    write_text(os.path.join(root, MANIFEST_NAME),
               json.dumps(manifest, indent=2) + "\n")
    return len(days)


def read_manifest(root: str) -> dict:
    """Load and validate a trace directory's manifest."""
    with open(os.path.join(root, MANIFEST_NAME)) as fileobj:
        manifest = json.load(fileobj)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    return manifest


def iter_trace_days(root: str, *, mode: str = "strict",
                    sink: Optional[QuarantineSink] = None,
                    ) -> Iterator[TraceDayFiles]:
    """Yield each day's parsed records, in manifest (time) order.

    In strict mode (default) a malformed line raises
    :class:`~repro.reliability.errors.RecordError`; in lenient mode it
    is quarantined into ``sink`` and the replay continues with the
    surviving records.
    """
    manifest = read_manifest(root)
    for label in manifest["days"]:
        day_dir = os.path.join(root, label)
        yield TraceDayFiles(
            day_start=parse_day(label),
            dhcp_records=_read_gz_records(
                os.path.join(day_dir, DHCP_FILE), DhcpLogRecord.from_json,
                "dhcp", mode, sink),
            dns_records=DnsColumns.from_rows(_read_gz_records(
                os.path.join(day_dir, DNS_FILE), DnsLogRecord.from_json,
                "dns", mode, sink)),
            bursts=BurstColumns.from_rows(_read_gz_records(
                os.path.join(day_dir, WIRE_FILE), burst_from_json,
                "wire", mode, sink)),
        )


def ingest_trace_dir(pipeline, root: str, *, mode: str = "strict",
                     sink: Optional[QuarantineSink] = None) -> int:
    """Replay a trace directory through a pipeline; returns day count.

    Equivalent to live ingestion: the pipeline receives the same
    records in the same order. With ``mode="lenient"`` malformed lines
    are quarantined instead of raising, and the exact per-stream counts
    are folded into the pipeline's stats
    (:meth:`~repro.pipeline.pipeline.MonitoringPipeline.absorb_quarantine`).
    """
    own_sink = sink
    if mode == "lenient" and own_sink is None:
        own_sink = QuarantineSink()
    count = 0
    for day in iter_trace_days(root, mode=mode, sink=own_sink):
        pipeline.ingest_day(day)
        count += 1
    if own_sink is not None and hasattr(pipeline, "absorb_quarantine"):
        pipeline.absorb_quarantine(own_sink)
    return count
