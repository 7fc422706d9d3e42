"""Wire-level event records seen by the passive tap.

The mirror port sees layer-3 traffic only, so client devices appear
exclusively as (dynamic) IP addresses -- recovering the device identity
is the job of DHCP-log normalization downstream, exactly as in the
paper. Three record kinds cross the tap:

* :class:`SegmentBurst` -- a burst of packets in one direction pair of a
  TCP/UDP connection. The Zeek flow engine reassembles bursts sharing a
  five-tuple into connection records.
  A day trace carries its bursts as one :class:`BurstColumns` -- a
  typed column per field, in time order -- which the generator builds
  and the columnar ingest path reads with no per-burst object in
  between; :meth:`BurstColumns.rows` materializes the rows on request.
* :class:`WireConnection` -- a fully-formed connection observation, used
  by components (and tests) that operate at connection granularity.
* :class:`DnsQueryEvent` -- a resolver transaction (query + answers)
  observed on the wire, the raw material of the DNS log.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class SegmentBurst:
    """A unidirectional-pair burst of packets within one connection.

    ``user_agent`` is populated on at most the first burst of plaintext
    HTTP connections, mirroring what Zeek's http.log would surface.
    ``is_final`` marks the burst carrying the connection teardown.
    """

    ts: float
    client_ip: int
    client_port: int
    server_ip: int
    server_port: int
    proto: str
    orig_bytes: int
    resp_bytes: int
    user_agent: Optional[str] = None
    #: Host header visible on plaintext HTTP requests (None under TLS).
    http_host: Optional[str] = None
    is_final: bool = False

    @property
    def five_tuple(self) -> Tuple[int, int, int, int, str]:
        """The connection key used for flow reassembly."""
        return (
            self.client_ip,
            self.client_port,
            self.server_ip,
            self.server_port,
            self.proto,
        )


class BurstColumns:
    """A sequence of bursts as parallel columns, one per SegmentBurst field.

    Numeric fields are typed numpy arrays (``ts`` float64, addresses,
    ports and byte counts int64, ``is_final`` bool); ``proto``,
    ``user_agent`` and ``http_host`` are object arrays of ``str`` or
    None. Row order is whatever the builder gave -- a day trace holds
    its bursts in time order, and nothing here re-sorts them, so the
    flow engine's order guard still sees a disordered log.
    """

    __slots__ = ("ts", "client_ip", "client_port", "server_ip",
                 "server_port", "proto", "orig_bytes", "resp_bytes",
                 "user_agent", "http_host", "is_final")

    def __init__(self, *, ts: Sequence[float], client_ip: Sequence[int],
                 client_port: Sequence[int], server_ip: Sequence[int],
                 server_port: Sequence[int], proto: Sequence[str],
                 orig_bytes: Sequence[int], resp_bytes: Sequence[int],
                 user_agent: Sequence[Optional[str]],
                 http_host: Sequence[Optional[str]],
                 is_final: Sequence[bool]) -> None:
        self.ts = np.asarray(ts, dtype=np.float64)
        self.client_ip = np.asarray(client_ip, dtype=np.int64)
        self.client_port = np.asarray(client_port, dtype=np.int64)
        self.server_ip = np.asarray(server_ip, dtype=np.int64)
        self.server_port = np.asarray(server_port, dtype=np.int64)
        self.proto = object_column(proto)
        self.orig_bytes = np.asarray(orig_bytes, dtype=np.int64)
        self.resp_bytes = np.asarray(resp_bytes, dtype=np.int64)
        self.user_agent = object_column(user_agent)
        self.http_host = object_column(http_host)
        self.is_final = np.asarray(is_final, dtype=np.bool_)
        if len({len(getattr(self, name)) for name in self.__slots__}) > 1:
            raise ValueError("burst columns differ in length")

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_rows(cls, bursts: Iterable[SegmentBurst]) -> "BurstColumns":
        """Columns of ``bursts`` in the order given (never sorted)."""
        rows = list(bursts)
        return cls(**{name: [getattr(burst, name) for burst in rows]
                      for name in cls.__slots__})

    def rows(self) -> Iterator[SegmentBurst]:
        """Each burst as a :class:`SegmentBurst`, in column order.

        For row-at-a-time consumers (trace files, the reference flow
        engine); the columnar ingest path never calls this.
        """
        # __slots__ lists the columns in SegmentBurst field order.
        return starmap(SegmentBurst, zip(*(getattr(self, name).tolist()
                                           for name in self.__slots__)))

    def take(self, index: np.ndarray) -> "BurstColumns":
        """The rows at ``index`` (an integer array), in that order."""
        return BurstColumns(**{name: getattr(self, name)[index]
                               for name in self.__slots__})


def object_column(values: Sequence[Optional[str]]) -> np.ndarray:
    """A 1-d object array of ``values`` (np.asarray could go 2-d)."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        return values
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


@dataclass(frozen=True)
class WireConnection:
    """One complete connection as observed at the tap."""

    start: float
    duration: float
    client_ip: int
    client_port: int
    server_ip: int
    server_port: int
    proto: str
    orig_bytes: int
    resp_bytes: int
    user_agent: Optional[str] = None

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def total_bytes(self) -> int:
        return self.orig_bytes + self.resp_bytes


@dataclass(frozen=True)
class DnsQueryEvent:
    """A DNS transaction: who asked for what, and what came back."""

    ts: float
    client_ip: int
    qname: str
    answers: Tuple[int, ...]
    ttl: float = 300.0
