"""Deterministic fault injection for the chaos test suite.

Every injection surface is a pure function of its inputs (or of a
seed), so every chaos test is exactly reproducible:

* :func:`corrupt_log_lines` mangles a clean JSONL log at a seeded
  corruption rate, cycling through the malformation kinds a real log
  collector produces (truncation, garbage bytes, missing fields,
  non-object JSON), and returns exactly which lines it touched so
  quarantine counts can be asserted record-for-record.
* :class:`LogGap` + :meth:`FaultPlan.drop_log_span` model a log
  collector *outage*: DHCP or DNS records inside a declared span are
  deleted from the day trace before ingest sees them, and the trace is
  tagged with the gaps so the pipeline's coverage ledger and degraded
  annotation know exactly what went missing.
* :func:`maybe_crash` is the SIGKILL chaos hook: named crash points in
  the journaled-run orchestration (:mod:`repro.core.runner`) call it,
  and a subprocess harness arms one point per run via the
  ``REPRO_CRASH_AT`` environment variable -- the process then kills
  itself with a real ``SIGKILL`` (no cleanup, no atexit, no flush),
  exactly what a power cut does to the real CLI.
* :class:`DiskFault`/:class:`DiskFaultInjector` inject filesystem
  failures (``ENOSPC``, torn/truncated writes, failing fsync) into the
  single atomic-write chokepoint (:mod:`repro.reliability.atomic`)
  that journaled run outputs, the quarantine sink, the artifact store
  and the run journal all write through.
"""

from __future__ import annotations

import json
import os
import signal
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.net.wire import BurstColumns
from repro.reliability.errors import DiskFullError, TransientIOError
from repro.util.rng import substream

if TYPE_CHECKING:  # import-time cycle: repro.dns imports repro.reliability
    from repro.dns.records import DnsColumns

#: Log sources a :class:`LogGap` may silence. The wire tap ("conn") is
#: the collector itself -- if it is down there is no day trace at all --
#: so only the side-channel logs can go missing independently.
GAP_SOURCES = ("dhcp", "dns")


@dataclass(frozen=True)
class LogGap:
    """A half-open span ``[start, end)`` during which one log is absent."""

    source: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.source not in GAP_SOURCES:
            raise ValueError(
                f"gap source must be one of {GAP_SOURCES}, "
                f"got {self.source!r}")
        if not self.end > self.start:
            raise ValueError("gap end must be after gap start")

    def contains(self, ts: float) -> bool:
        return self.start <= ts < self.end

    def overlaps_day(self, day_start: float, day_end: float) -> bool:
        return self.start < day_end and self.end > day_start


@dataclass(frozen=True)
class GappedDayTrace:
    """A day trace with some log records deleted by a collector outage.

    Mirrors the duck interface the pipeline reads from
    :class:`repro.synth.generator.DayTrace`, plus ``log_gaps`` so the
    pipeline's coverage ledger knows what was silenced.
    """

    day_start: float
    dns_records: DnsColumns
    bursts: BurstColumns
    dhcp_records: Tuple[Any, ...]
    session_count: int
    connection_count: int
    log_gaps: Tuple[LogGap, ...]


@dataclass(frozen=True)
class FaultPlan:
    """Collector outages to cut out of a run's day traces.

    An outage is a property of the input, not of the process ingesting
    it, so every ingest of the same days sees the same gaps.
    """

    #: Spans of DHCP/DNS log deleted before ingest.
    log_gaps: Tuple[LogGap, ...] = ()

    def gaps_for_day(self, day_start: float,
                     day_end: float) -> Tuple[LogGap, ...]:
        """The planned gaps overlapping one day (empty for clean days)."""
        return tuple(gap for gap in self.log_gaps
                     if gap.overlaps_day(day_start, day_end))

    def drop_log_span(self, trace: Any) -> Any:
        """Delete DHCP/DNS records inside planned gaps from a day trace.

        Returns the trace unchanged (same object -- the clean code path
        stays byte-identical) when no gap overlaps the day; otherwise
        returns a :class:`GappedDayTrace` with the silenced records
        removed and the overlapping gaps attached.
        """
        from repro.util.timeutil import DAY

        day_start = trace.day_start
        gaps = self.gaps_for_day(day_start, day_start + DAY)
        if not gaps:
            return trace
        dhcp_gaps = [gap for gap in gaps if gap.source == "dhcp"]
        dns_gaps = [gap for gap in gaps if gap.source == "dns"]
        dhcp_records = tuple(
            record for record in trace.dhcp_records
            if not any(gap.contains(record.ts) for gap in dhcp_gaps))
        dns_records = trace.dns_records
        silenced = np.zeros(len(dns_records), dtype=bool)
        for gap in dns_gaps:
            silenced |= ((dns_records.ts >= gap.start)
                         & (dns_records.ts < gap.end))
        return GappedDayTrace(
            day_start=day_start,
            dns_records=dns_records.take(~silenced),
            bursts=trace.bursts,
            dhcp_records=dhcp_records,
            session_count=getattr(trace, "session_count", 0),
            connection_count=getattr(trace, "connection_count", 0),
            log_gaps=gaps)


#: The malformation kinds cycled through by :func:`corrupt_log_lines`.
CORRUPTION_KINDS = ("truncate", "garbage", "drop_field", "non_object")


def _corrupt_one(line: str, kind: str) -> str:
    if kind == "truncate":
        # A partially flushed write: the record ends mid-token.
        return line[:max(1, len(line) // 2)]
    if kind == "garbage":
        return "\x00\xff not json at all \x7f"
    if kind == "drop_field":
        try:
            payload = json.loads(line)
            payload.pop("ts", None)
            return json.dumps(payload)
        except ValueError:  # pragma: no cover - inputs are clean JSON
            return "{}"
    if kind == "non_object":
        return json.dumps([line[:10]])
    raise ValueError(f"unknown corruption kind: {kind}")


# -- SIGKILL crash points ---------------------------------------------------

#: Environment variable arming one crash point: ``"<point>"`` kills the
#: process the first time that point is hit, ``"<point>@N"`` on the Nth
#: hit (1-based). Set by the subprocess chaos harness, never in
#: production.
CRASH_ENV = "REPRO_CRASH_AT"

#: Per-point hit counts for this process (``@N`` support).
_crash_hits: Counter = Counter()


def maybe_crash(point: str) -> None:
    """SIGKILL this process if ``REPRO_CRASH_AT`` arms ``point``.

    A real ``SIGKILL`` -- not ``sys.exit``, not an exception -- so no
    ``finally`` block, atexit hook or buffered write gets a chance to
    tidy up. This is the contract the run journal is built against:
    anything not already fsync'd is gone.
    """
    spec = os.environ.get(CRASH_ENV)
    if not spec:
        return
    target, _, nth = spec.partition("@")
    if target != point:
        return
    _crash_hits[point] += 1
    if _crash_hits[point] >= int(nth or "1"):
        os.kill(os.getpid(), signal.SIGKILL)


# -- disk fault injection ---------------------------------------------------

#: Fault kinds :class:`DiskFaultInjector` understands.
DISK_FAULT_KINDS = ("enospc", "torn", "fsync")

#: Environment variable carrying a JSON list of disk faults for
#: subprocess runs, e.g. ``[{"kind": "enospc", "path": "objects",
#: "hits": [0]}]``. ``"hits": "all"`` fires on every matching write.
DISK_FAULT_ENV = "REPRO_DISK_FAULTS"


@dataclass(frozen=True)
class DiskFault:
    """One planned filesystem failure.

    ``path_contains`` selects the files it applies to (substring match
    on the target path); ``hits`` are the 0-based indices of *matching
    operations* on which it fires (``None`` = every matching
    operation). Kinds:

    * ``enospc`` -- the write raises :class:`DiskFullError` before any
      byte reaches the file (a full device refusing the allocation);
    * ``torn`` -- half the payload is written and durably flushed, then
      :class:`~repro.reliability.errors.TornWriteError` simulates the
      crash (power loss mid-write);
    * ``fsync`` -- the data is written but the fsync fails with a
      transient I/O error (a dying disk acknowledging late).
    """

    kind: str
    path_contains: str
    hits: Optional[Tuple[int, ...]] = (0,)

    def __post_init__(self) -> None:
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(f"disk fault kind must be one of "
                             f"{DISK_FAULT_KINDS}, got {self.kind!r}")

    def fires(self, hit_index: int) -> bool:
        return self.hits is None or hit_index in self.hits


@dataclass
class DiskFaultInjector:
    """Stateful dispatcher consulted by :mod:`repro.reliability.atomic`.

    Tracks how many matching operations each fault has seen (so
    ``hits`` indices are deterministic) and logs every fault actually
    fired, letting tests assert exact failure accounting.
    """

    faults: Tuple[DiskFault, ...] = ()
    #: ``(kind, path)`` of every fault fired, in order.
    fired: List[Tuple[str, str]] = field(default_factory=list)
    _seen: Dict[int, int] = field(default_factory=dict)

    def _matching(self, path: str, kinds: Tuple[str, ...]
                  ) -> Optional[DiskFault]:
        for index, fault in enumerate(self.faults):
            if fault.kind not in kinds:
                continue
            if fault.path_contains not in path:
                continue
            hit = self._seen.get(index, 0)
            self._seen[index] = hit + 1
            if fault.fires(hit):
                self.fired.append((fault.kind, path))
                return fault
        return None

    def on_write(self, path: str, data: bytes) -> Optional[bytes]:
        """Consulted before a payload write.

        Returns ``None`` (write proceeds untouched), raises
        :class:`DiskFullError`, or returns a truncated prefix the
        writer must persist before raising ``TornWriteError``.
        """
        fault = self._matching(path, ("enospc", "torn"))
        if fault is None:
            return None
        if fault.kind == "enospc":
            raise DiskFullError(
                f"injected ENOSPC writing {os.path.basename(path)}")
        return data[:max(1, len(data) // 2)]

    def on_fsync(self, path: str) -> None:
        """Consulted before an fsync; raises on an injected failure."""
        if self._matching(path, ("fsync",)) is not None:
            raise TransientIOError(
                f"injected fsync failure on {os.path.basename(path)}")

    @classmethod
    def from_env(cls) -> Optional["DiskFaultInjector"]:
        """Build an injector from ``REPRO_DISK_FAULTS`` (subprocesses)."""
        spec = os.environ.get(DISK_FAULT_ENV)
        if not spec:
            return None
        faults = []
        for entry in json.loads(spec):
            hits = entry.get("hits", [0])
            faults.append(DiskFault(
                kind=str(entry["kind"]),
                path_contains=str(entry.get("path", "")),
                hits=None if hits == "all" else tuple(
                    int(hit) for hit in hits)))
        return cls(faults=tuple(faults))


def corrupt_log_lines(lines: List[str], rate: float,
                      seed: int) -> Tuple[List[str], List[int]]:
    """Deterministically corrupt a fraction of JSONL lines.

    Returns the mangled lines plus the sorted indices of the lines that
    were corrupted (so tests can assert quarantine counts exactly).
    ``rate`` is a per-line probability drawn from a seeded substream.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must lie in [0, 1]")
    rng = substream(seed, "corrupt-log")
    corrupted: List[str] = []
    touched: List[int] = []
    for index, line in enumerate(lines):
        if rate > 0.0 and float(rng.random()) < rate:
            kind = CORRUPTION_KINDS[len(touched) % len(CORRUPTION_KINDS)]
            corrupted.append(_corrupt_one(line, kind))
            touched.append(index)
        else:
            corrupted.append(line)
    return corrupted, touched
