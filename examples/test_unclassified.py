"""Tests for the unclassified-device attribution in ``unclassified.py``
(footnote 2)."""

import numpy as np
import pytest

from repro.devices.classifier import ClassificationResult
from repro.devices.types import DeviceClass
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.synth.devices import DeviceKind
from tests.oracles.dataset import RowFlowDatasetBuilder

from unclassified import attribute_unclassified


def _build(device_flows):
    """device_flows: list of lists of (domain, total_bytes)."""
    builder = RowFlowDatasetBuilder(day0=0.0)
    anonymizer = Anonymizer("s")
    counter = 0
    for device_slot, flows in enumerate(device_flows):
        idx = builder.device_index(
            anonymizer.device(MacAddress(0x9C1A00000000 + device_slot)))
        for domain, total_bytes in flows:
            builder.add_flow(
                ts=float(counter), duration=1.0, device_idx=idx,
                resp_h=1, resp_p=443, proto="tcp",
                orig_bytes=total_bytes // 2,
                resp_bytes=total_bytes - total_bytes // 2,
                domain_idx=builder.domain_index(domain), user_agent=None)
            counter += 1
    return builder.finalize()


def _classes(labels):
    return ClassificationResult(
        classes=np.array([DeviceClass.code(label) for label in labels],
                         dtype=np.int8),
        iot_scores=np.zeros(len(labels)),
        is_switch=np.zeros(len(labels), dtype=bool),
    )


MOBILE_MIX = [("tiktok.com", 7000), ("instagram.com", 3000)]
LAPTOP_MIX = [("steamcontent.com", 8000), ("github.com", 2000)]
IOT_MIX = [("cloud.brightbulb.io", 10_000)]


class TestAttribution:
    def test_phone_like_unclassified_attributed_to_mobile(self):
        dataset = _build([MOBILE_MIX, LAPTOP_MIX, IOT_MIX, MOBILE_MIX])
        classification = _classes([
            DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP,
            DeviceClass.IOT, DeviceClass.UNCLASSIFIED])
        result = attribute_unclassified(dataset, classification)
        assert len(result.attributions) == 1
        _, best, similarity = result.attributions[0]
        assert best == DeviceClass.MOBILE
        assert similarity > 0.9
        assert result.personal_device_share() == 1.0

    def test_laptop_like_unclassified(self):
        dataset = _build([MOBILE_MIX, LAPTOP_MIX, IOT_MIX, LAPTOP_MIX])
        classification = _classes([
            DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP,
            DeviceClass.IOT, DeviceClass.UNCLASSIFIED])
        result = attribute_unclassified(dataset, classification)
        assert result.attributions[0][1] == DeviceClass.LAPTOP_DESKTOP

    def test_share_helpers(self):
        dataset = _build([MOBILE_MIX, LAPTOP_MIX, IOT_MIX,
                          MOBILE_MIX, IOT_MIX])
        classification = _classes([
            DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP,
            DeviceClass.IOT, DeviceClass.UNCLASSIFIED,
            DeviceClass.UNCLASSIFIED])
        result = attribute_unclassified(dataset, classification)
        assert result.share_attributed_to(DeviceClass.MOBILE) == \
            pytest.approx(0.5)
        assert result.share_attributed_to(DeviceClass.IOT) == \
            pytest.approx(0.5)
        assert result.personal_device_share() == pytest.approx(0.5)

    def test_no_unclassified_devices(self):
        dataset = _build([MOBILE_MIX, LAPTOP_MIX])
        classification = _classes([
            DeviceClass.MOBILE, DeviceClass.LAPTOP_DESKTOP])
        result = attribute_unclassified(dataset, classification)
        assert result.attributions == []
        assert np.isnan(result.personal_device_share())


class TestOnMiniStudy:
    def test_footnote_two_hypothesis(self, mini_artifacts, ground_truth):
        """Most unclassified devices really are personal devices, and
        the mix-similarity attribution recovers that."""
        device_of, _ = ground_truth
        result = attribute_unclassified(
            mini_artifacts.dataset, mini_artifacts.classification)
        if len(result.attributions) < 5:
            pytest.skip("too few unclassified devices at mini scale")
        # The paper's suspicion holds in ground truth...
        unclassified = mini_artifacts.classification.class_mask(
            DeviceClass.UNCLASSIFIED)
        personal_truth = sum(
            1 for index in np.flatnonzero(unclassified)
            if device_of.get(int(index)) is not None
            and device_of[int(index)].kind in (
                DeviceKind.PHONE, DeviceKind.LAPTOP, DeviceKind.DESKTOP,
                DeviceKind.TABLET))
        assert personal_truth / unclassified.sum() > 0.8
        # ...and the attribution method agrees.
        assert result.personal_device_share() > 0.7
