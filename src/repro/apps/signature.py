"""The application-signature primitive.

A signature matches flows by destination domain suffix and/or by
destination IP range. Domain matching covers the DNS-annotated flows;
IP ranges catch connections made straight to addresses (Zoom media),
which never appear in DNS logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.dns.domains import matches_suffix
from repro.net.ip import Prefix
from repro.perf.kernels import (
    domain_str_array,
    suffix_match_table,
    table_flow_mask,
)
from repro.pipeline.dataset import FlowDataset


@dataclass(frozen=True)
class AppSignature:
    """Domain-suffix and IP-range signature for one application."""

    name: str
    domain_suffixes: Tuple[str, ...] = ()
    ip_ranges: Tuple[Prefix, ...] = ()

    def __post_init__(self) -> None:
        if not self.domain_suffixes and not self.ip_ranges:
            raise ValueError(
                f"signature {self.name!r} matches nothing")

    def matches_domain(self, domain: str) -> bool:
        """True when a hostname falls under any signature suffix."""
        return matches_suffix(domain, self.domain_suffixes)

    def matches_ip(self, address: int) -> bool:
        """True when an address falls in any signature range."""
        return any(prefix.contains(address) for prefix in self.ip_ranges)

    # -- dataset-level matching -----------------------------------------

    def domain_table(self, domain_arr: np.ndarray) -> np.ndarray:
        """Per-domain bool table over a unique-domain side table.

        ``domain_arr`` is the dataset's domain list as a numpy string
        array (:func:`repro.perf.kernels.domain_str_array`); matching
        runs vectorized over it.
        """
        return suffix_match_table(domain_arr, self.domain_suffixes)

    def domain_mask(self, dataset: FlowDataset) -> np.ndarray:
        """Flow mask: annotated with a matching domain.

        Short-circuits to all-False -- without building the domain
        table -- when the signature has no suffixes or the dataset has
        no annotated flows.
        """
        if not self.domain_suffixes or not len(dataset.domains):
            return np.zeros(len(dataset), dtype=bool)
        annotated = dataset.domain >= 0
        if not annotated.any():
            return np.zeros(len(dataset), dtype=bool)
        table = self.domain_table(domain_str_array(dataset.domains))
        return table_flow_mask(dataset.domain, table)

    def ip_mask(self, dataset: FlowDataset) -> np.ndarray:
        """Flow mask: destination inside a signature IP range."""
        mask = np.zeros(len(dataset), dtype=bool)
        for prefix in self.ip_ranges:
            mask |= ((dataset.resp_h >= prefix.first)
                     & (dataset.resp_h <= prefix.last))
        return mask

    def flow_mask(self, dataset: FlowDataset) -> np.ndarray:
        """Flow mask: matched by domain or by IP range."""
        return self.domain_mask(dataset) | self.ip_mask(dataset)
