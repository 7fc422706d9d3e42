"""Network primitives: MAC addresses and OUIs, IPv4 prefixes, wire records."""

from repro.net.ip import PrefixAllocator, ip_in_any, ip_to_int, int_to_ip, prefix_contains
from repro.net.mac import MacAddress, random_laa_mac, vendor_mac
from repro.net.oui_db import OuiDatabase, OuiRecord, default_oui_database
from repro.net.wire import BurstColumns, SegmentBurst

__all__ = [
    "BurstColumns",
    "MacAddress",
    "OuiDatabase",
    "OuiRecord",
    "PrefixAllocator",
    "SegmentBurst",
    "default_oui_database",
    "int_to_ip",
    "ip_in_any",
    "ip_to_int",
    "prefix_contains",
    "random_laa_mac",
    "vendor_mac",
]
