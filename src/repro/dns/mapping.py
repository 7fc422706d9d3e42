"""Remote-IP -> domain annotation from DNS logs (the measurement side).

A flow to a server IP is annotated with the most recent domain observed
for that IP at or before the flow start, within a freshness window --
mirroring how the paper distinguishes services behind shared or
rotating addresses. :class:`~repro.columnar.dnsindex.ColumnarDnsIndex`
implements the lookup; this module fixes its window.
"""

#: How long an observed answer keeps annotating an address. DNS TTLs
#: are minutes, but clients cache and reconnect, so the pipeline allows
#: a generous window (the paper's logs are contemporaneous day-scale).
DEFAULT_FRESHNESS_SECONDS = 48 * 3600.0
