"""What are the unclassified devices? (The paper's footnote 2.)

The paper suspects its large unclassified class consists "actually
[of] mobile and desktop devices with large outliers in device
behavior". With traffic in hand we can test that: build each known
class's application-mix centroid (byte shares over destination
*sites*), then ask which centroid each unclassified device's own mix
most resembles.

On the synthetic campus this has a ground truth to score against --
unclassified devices really are phones and laptops whose MAC
randomization and TLS-only traffic defeated the classifier -- so the
attribution method itself can be validated before anyone points it at
real data.

It lives beside ``beyond_the_paper.py``, its one caller, rather than in
the ``repro`` package: no figure, artifact or command uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.devices.classifier import ClassificationResult
from repro.devices.types import DeviceClass
from repro.dns.domains import site_of
from repro.pipeline.dataset import FlowDataset

#: Classes whose centroids anchor the comparison.
ANCHOR_CLASSES = (DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP,
                  DeviceClass.IOT)

#: Sites must receive at least this share of some class's bytes to
#: become a mix dimension (keeps the vectors dense and comparable).
_MIN_SITE_SHARE = 0.002


@dataclass
class UnclassifiedAttribution:
    """Similarity-based attribution of the unclassified devices."""

    #: The site vocabulary the mixes are expressed over.
    sites: List[str]
    #: class name -> centroid vector over ``sites``.
    centroids: Dict[str, np.ndarray]
    #: Per unclassified device: (device index, best class, similarity).
    attributions: List[Tuple[int, str, float]]

    def share_attributed_to(self, class_name: str) -> float:
        """Fraction of unclassified devices closest to a class."""
        if not self.attributions:
            return float("nan")
        hits = sum(1 for _, best, _ in self.attributions
                   if best == class_name)
        return hits / len(self.attributions)

    def personal_device_share(self) -> float:
        """Fraction attributed to mobile or laptop/desktop -- the
        paper's footnote-2 hypothesis."""
        if not self.attributions:
            return float("nan")
        hits = sum(1 for _, best, _ in self.attributions
                   if best in (DeviceClass.MOBILE,
                               DeviceClass.LAPTOP_DESKTOP))
        return hits / len(self.attributions)


def attribute_unclassified(dataset: FlowDataset,
                           classification: ClassificationResult,
                           ) -> UnclassifiedAttribution:
    """Attribute each unclassified device to its most similar class."""
    site_index, site_list = _site_vocabulary(dataset)
    mixes = _per_device_site_bytes(dataset, site_index)

    centroids: Dict[str, np.ndarray] = {}
    for class_name in ANCHOR_CLASSES:
        members = classification.class_mask(class_name)
        total = mixes[members].sum(axis=0)
        norm = total.sum()
        centroids[class_name] = (total / norm if norm > 0
                                 else np.zeros(len(site_list)))

    attributions: List[Tuple[int, str, float]] = []
    unclassified = np.flatnonzero(
        classification.class_mask(DeviceClass.UNCLASSIFIED))
    for device_index in unclassified:
        vector = mixes[device_index]
        total = vector.sum()
        if total <= 0:
            continue
        vector = vector / total
        best_class, best_similarity = None, -1.0
        for class_name, centroid in centroids.items():
            similarity = _cosine(vector, centroid)
            if similarity > best_similarity:
                best_class, best_similarity = class_name, similarity
        if best_class is not None:
            attributions.append(
                (int(device_index), best_class, float(best_similarity)))

    return UnclassifiedAttribution(
        sites=site_list,
        centroids=centroids,
        attributions=attributions,
    )


def _site_vocabulary(dataset: FlowDataset):
    """Registrable-domain vocabulary covering the dataset's traffic."""
    site_of_domain = [site_of(domain) for domain in dataset.domains]
    totals: Dict[str, float] = {}
    annotated = dataset.domain >= 0
    flow_bytes = dataset.total_bytes.astype(np.float64)
    for domain_idx, weight in zip(dataset.domain[annotated],
                                  flow_bytes[annotated]):
        site = site_of_domain[domain_idx]
        if site is not None:
            totals[site] = totals.get(site, 0.0) + float(weight)
    grand_total = sum(totals.values()) or 1.0
    site_list = sorted(
        site for site, weight in totals.items()
        if weight / grand_total >= _MIN_SITE_SHARE)
    return {site: i for i, site in enumerate(site_list)}, site_list


def _per_device_site_bytes(dataset: FlowDataset,
                           site_index: Dict[str, int]) -> np.ndarray:
    site_of_domain = [site_of(domain) for domain in dataset.domains]
    domain_to_slot = np.full(len(dataset.domains), -1, dtype=np.int64)
    for domain_idx, site in enumerate(site_of_domain):
        if site is not None and site in site_index:
            domain_to_slot[domain_idx] = site_index[site]

    mixes = np.zeros((dataset.n_devices, len(site_index)))
    annotated = dataset.domain >= 0
    slots = domain_to_slot[dataset.domain[annotated]]
    devices = dataset.device[annotated]
    weights = dataset.total_bytes[annotated].astype(np.float64)
    keep = slots >= 0
    np.add.at(mixes, (devices[keep], slots[keep]), weights[keep])
    return mixes


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm <= 0:
        return 0.0
    return float(np.dot(a, b) / norm)
