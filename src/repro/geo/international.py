"""The domestic/international device classifier (Section 4.2).

Per device: take its February flows, drop flows to excluded CDNs
(Akamai, AWS, Cloudfront, Optimizely -- they geolocate to the local
POP and would drag every midpoint toward campus), geolocate the
remaining destination IPs, compute the byte-weighted midpoint, and
label the device international when the midpoint falls outside the
United States.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.dns.domains import matches_suffix
from repro.geo.borders import point_in_us
from repro.geo.midpoint import weighted_geographic_midpoint
from repro.pipeline.dataset import FlowDataset
from repro.util.timeutil import month_bounds
from repro.world.geo import GeoDatabase


@dataclass
class MidpointReport:
    """Classification output for the whole device table."""

    #: Per-device midpoint (NaN when not computable).
    lat: np.ndarray
    lon: np.ndarray
    #: True for devices presumed international.
    is_international: np.ndarray
    #: Devices with enough February traffic to classify.
    classifiable: np.ndarray

    @property
    def international_count(self) -> int:
        return int(self.is_international.sum())

    def international_fraction(self,
                               device_mask: Optional[np.ndarray] = None) -> float:
        """Share of (masked) classifiable devices labelled international."""
        classifiable = self.classifiable
        international = self.is_international
        if device_mask is not None:
            classifiable = classifiable & device_mask
            international = international & device_mask
        denominator = classifiable.sum()
        if denominator == 0:
            return 0.0
        return float(international.sum() / denominator)


class InternationalClassifier:
    """Byte-weighted midpoint classification of devices."""

    def __init__(self, geo_db: GeoDatabase,
                 excluded_domain_suffixes: Sequence[str] = (),
                 reference_month: Tuple[int, int] = (2020, 2)):
        self.geo_db = geo_db
        self.excluded_domain_suffixes = tuple(excluded_domain_suffixes)
        self.reference_month = reference_month

    def _domain_excluded(self, domain: str) -> bool:
        return matches_suffix(domain, self.excluded_domain_suffixes)

    def classify(self, dataset: FlowDataset) -> MidpointReport:
        """Classify every device in the dataset."""
        start, end = month_bounds(*self.reference_month)
        in_month = (dataset.ts >= start) & (dataset.ts < end)

        excluded_domain = np.array(
            [self._domain_excluded(domain) for domain in dataset.domains],
            dtype=bool)
        flow_excluded = np.zeros(len(dataset), dtype=bool)
        annotated = dataset.domain >= 0
        flow_excluded[annotated] = excluded_domain[dataset.domain[annotated]]

        usable = in_month & ~flow_excluded
        device = dataset.device[usable]
        resp_h = dataset.resp_h[usable]
        weights = dataset.total_bytes[usable].astype(np.float64)

        # Geolocate each distinct destination once, in one batch.
        unique_ips, inverse = np.unique(resp_h, return_inverse=True)
        lat_by_ip, lon_by_ip = self.geo_db.coordinates(unique_ips)
        flow_lat = lat_by_ip[inverse]
        flow_lon = lon_by_ip[inverse]
        located = ~np.isnan(flow_lat)

        n = dataset.n_devices
        lat_out = np.full(n, np.nan)
        lon_out = np.full(n, np.nan)
        is_international = np.zeros(n, dtype=bool)
        classifiable = np.zeros(n, dtype=bool)

        if not located.any():
            return MidpointReport(
                lat=lat_out, lon=lon_out,
                is_international=is_international,
                classifiable=classifiable)

        order = np.argsort(device[located], kind="stable")
        dev_sorted = device[located][order]
        lat_sorted = flow_lat[located][order]
        lon_sorted = flow_lon[located][order]
        weight_sorted = weights[located][order]
        boundaries = np.flatnonzero(np.diff(dev_sorted)) + 1
        for chunk_idx, start_idx in enumerate(
                np.concatenate(([0], boundaries))):
            end_idx = (boundaries[chunk_idx]
                       if chunk_idx < len(boundaries) else len(dev_sorted))
            device_index = int(dev_sorted[start_idx])
            midpoint = weighted_geographic_midpoint(
                lat_sorted[start_idx:end_idx],
                lon_sorted[start_idx:end_idx],
                weight_sorted[start_idx:end_idx])
            if midpoint is None:
                continue
            classifiable[device_index] = True
            lat_out[device_index], lon_out[device_index] = midpoint
            is_international[device_index] = not point_in_us(*midpoint)

        return MidpointReport(
            lat=lat_out,
            lon=lon_out,
            is_international=is_international,
            classifiable=classifiable,
        )
