"""DNS substrate: synthetic resolver, query logs, and IP->domain mapping.

The paper converts remote server IPs to domain names using
contemporaneous DNS logs (Section 3). This package provides:

* the *simulation* side -- a resolver over the synthetic internet's
  address plan that answers queries with rotating host addresses (the
  generator logs each query as one row of the day's
  :class:`~repro.dns.records.DnsColumns`);
* the *measurement* side -- the query log
  :class:`~repro.columnar.dnsindex.ColumnarDnsIndex` reconstructs
  "what domain was this server IP serving at this time" from, and the
  annotation freshness window
  (:data:`~repro.dns.mapping.DEFAULT_FRESHNESS_SECONDS`); and
* registrable-domain ("site") grouping used by the distinct-sites
  statistic (Section 4.1).
"""

from repro.dns.domains import site_of
from repro.dns.records import DnsColumns, DnsLogRecord
from repro.dns.resolver import SyntheticResolver

__all__ = [
    "DnsColumns",
    "DnsLogRecord",
    "SyntheticResolver",
    "site_of",
]
