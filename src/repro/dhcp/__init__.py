"""DHCP substrate: lease-pool simulation, logs, and IP->MAC resolution.

The passive tap observes only dynamic client IPs; the paper converts
them to stable per-device MAC addresses using contemporaneous DHCP
logs (Section 3). This package provides both halves:

* the *simulation* side -- a lease-pool server
  (:class:`~repro.dhcp.server.DhcpServer`) that assigns, renews,
  expires and **reuses** addresses, writing ACK log records as a real
  server would; and
* the *measurement* side -- the ACK log records a time-interval
  resolver (:class:`~repro.columnar.leases.ColumnarLeaseIndex`)
  reconstructs bindings from, to answer "which MAC held this IP at
  this instant". Address reuse makes this genuinely time-sensitive.
"""

from repro.dhcp.lease import Lease
from repro.dhcp.log import DhcpLogRecord, read_dhcp_log, write_dhcp_log
from repro.dhcp.server import DhcpServer, PoolExhaustedError

__all__ = [
    "DhcpLogRecord",
    "DhcpServer",
    "Lease",
    "PoolExhaustedError",
    "read_dhcp_log",
    "write_dhcp_log",
]
