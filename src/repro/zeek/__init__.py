"""Flow extraction in the style of Zeek's connection log.

The paper's pipeline uses Zeek to turn raw mirrored traffic into flow
records (Section 3). :class:`~repro.columnar.engine.ColumnarFlowEngine`
performs the same reduction over segment bursts: it groups by
five-tuple, accumulates byte counters in both directions and closes
flows on teardown or idleness. This package holds the record formats
around it: :class:`~repro.zeek.conn.ConnRecord` with the conn.log
fields the analyses consume, and its reader and writer.
"""

from repro.zeek.conn import ConnRecord
from repro.zeek.log import read_conn_log, write_conn_log

__all__ = [
    "ConnRecord",
    "read_conn_log",
    "write_conn_log",
]
