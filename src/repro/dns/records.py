"""DNS query-log records, their column form, and JSONL serialization.

A day trace carries its DNS log as one :class:`DnsColumns`: the
generator builds it from one plain row per query, and
:meth:`~repro.columnar.dnsindex.ColumnarDnsIndex.ingest_batch` reads it
with no per-record object in between. :class:`DnsLogRecord` is the row
form, for trace files and row-at-a-time consumers.

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
from itertools import chain, starmap
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.net.ip import int_to_ip, ip_to_int
from repro.net.wire import object_column
from repro.reliability.errors import (
    CATEGORY_FIELD,
    CATEGORY_VALUE,
    RecordError,
)
from repro.reliability.parsing import parse_json_object, require_finite

_SOURCE = "dns"


@dataclass(frozen=True)
class DnsLogRecord:
    """One resolver transaction as recorded by the campus DNS logs."""

    ts: float
    client_ip: int
    qname: str
    answers: Tuple[int, ...]
    ttl: float

    def to_json(self) -> str:
        return json.dumps({
            "ts": self.ts,
            "client": int_to_ip(self.client_ip),
            "qname": self.qname,
            "answers": [int_to_ip(a) for a in self.answers],
            "ttl": self.ttl,
        })

    @classmethod
    def from_json(cls, line: str,
                  line_no: Optional[int] = None) -> "DnsLogRecord":
        payload = parse_json_object(line, source=_SOURCE, line_no=line_no)
        try:
            record = cls(
                ts=float(payload["ts"]),
                client_ip=ip_to_int(payload["client"]),
                qname=str(payload["qname"]),
                answers=tuple(ip_to_int(a) for a in payload["answers"]),
                ttl=float(payload["ttl"]),
            )
        except KeyError as exc:
            raise RecordError(
                f"dns record missing field {exc}", source=_SOURCE,
                category=CATEGORY_FIELD, line_no=line_no, line=line) from exc
        except (TypeError, ValueError) as exc:
            raise RecordError(
                f"dns record has a bad value: {exc}", source=_SOURCE,
                category=CATEGORY_VALUE, line_no=line_no, line=line) from exc
        return require_finite(record, ("ts", "ttl"), nonnegative=("ttl",),
                              source=_SOURCE, line_no=line_no, line=line)


#: A record's fields in :class:`DnsLogRecord` order.
_FIELDS = attrgetter("ts", "client_ip", "qname", "answers", "ttl")


class DnsColumns:
    """A sequence of DNS log records as parallel columns.

    ``ts`` and ``ttl`` are float64, ``client_ip`` int64 and ``qname``
    an object array of ``str``. The answer sets are flattened: record
    ``i`` owns the next ``answer_count[i]`` entries of the int64
    ``answers`` column. Row order is whatever the builder gave; a day
    trace holds its records in time order.
    """

    __slots__ = ("ts", "client_ip", "qname", "answer_count", "answers",
                 "ttl")

    def __init__(self, *, ts: Sequence[float], client_ip: Sequence[int],
                 qname: Sequence[str], answer_count: Sequence[int],
                 answers: Sequence[int], ttl: Sequence[float]) -> None:
        self.ts = np.asarray(ts, dtype=np.float64)
        self.client_ip = np.asarray(client_ip, dtype=np.int64)
        self.qname = object_column(qname)
        self.answer_count = np.asarray(answer_count, dtype=np.int64)
        self.answers = np.asarray(answers, dtype=np.int64)
        self.ttl = np.asarray(ttl, dtype=np.float64)
        if len({len(self.ts), len(self.client_ip), len(self.qname),
                len(self.answer_count), len(self.ttl)}) > 1:
            raise ValueError("dns columns differ in length")
        if int(self.answer_count.sum()) != len(self.answers):
            raise ValueError("answer counts do not cover the answers")

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_tuples(cls, rows: Sequence[tuple]) -> "DnsColumns":
        """Columns of ``(ts, client_ip, qname, answers, ttl)`` tuples,
        in the order given (never sorted)."""
        if not rows:
            return cls(ts=[], client_ip=[], qname=[], answer_count=[],
                       answers=[], ttl=[])
        ts, client_ip, qname, answers, ttl = zip(*rows)
        return cls(ts=ts, client_ip=client_ip, qname=qname,
                   answer_count=list(map(len, answers)),
                   answers=list(chain.from_iterable(answers)), ttl=ttl)

    @classmethod
    def from_rows(cls, records: Iterable[DnsLogRecord]) -> "DnsColumns":
        """Columns of ``records`` in the order given (never sorted)."""
        return cls.from_tuples(list(map(_FIELDS, records)))

    def rows(self) -> Iterator[DnsLogRecord]:
        """Each record as a :class:`DnsLogRecord`, in column order.

        For row-at-a-time consumers (trace files, the reference
        resolvers); the columnar ingest path never calls this.
        """
        flat = self.answers.tolist()
        ends = np.cumsum(self.answer_count).tolist()
        answers = (tuple(flat[end - count:end]) for end, count
                   in zip(ends, self.answer_count.tolist()))
        return starmap(DnsLogRecord, zip(
            self.ts.tolist(), self.client_ip.tolist(), self.qname.tolist(),
            answers, self.ttl.tolist()))

    def take(self, index: np.ndarray) -> "DnsColumns":
        """The rows at ``index`` (integer positions or a boolean mask),
        in that order."""
        if index.dtype == bool:
            index = np.flatnonzero(index)
        counts = self.answer_count[index]
        starts = np.cumsum(self.answer_count) - self.answer_count
        # Position of each kept answer: its row's start plus its rank
        # within the row.
        kept_starts = np.cumsum(counts) - counts
        flat = (np.repeat(starts[index] - kept_starts, counts)
                + np.arange(int(counts.sum())))
        return DnsColumns(ts=self.ts[index], client_ip=self.client_ip[index],
                          qname=self.qname[index], answer_count=counts,
                          answers=self.answers[flat], ttl=self.ttl[index])
