"""Tests for the IoT and Switch traffic detectors."""

import numpy as np
import pytest

from repro.devices.iot import IotDetector, IotSignature, default_iot_signatures
from repro.devices.switch import SwitchDetector
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from tests.oracles.dataset import RowFlowDatasetBuilder


def _build(flows):
    """flows: list of (mac_value, domain_or_None, total_bytes)."""
    builder = RowFlowDatasetBuilder(day0=0.0)
    anonymizer = Anonymizer("s")
    for index, (mac_value, domain, total_bytes) in enumerate(flows):
        device_idx = builder.device_index(
            anonymizer.device(MacAddress(mac_value)))
        domain_idx = (NO_DOMAIN if domain is None
                      else builder.domain_index(domain))
        builder.add_flow(
            ts=float(index), duration=1.0, device_idx=device_idx,
            resp_h=100 + index, resp_p=443, proto="tcp",
            orig_bytes=total_bytes // 2, resp_bytes=total_bytes // 2,
            domain_idx=domain_idx, user_agent=None)
    return builder.finalize()


HUB, PHONE, SWITCH = 0x9C1A00000001, 0x9C1A00000002, 0x9C1A00000003


class TestIotDetector:
    def test_concentrated_device_detected(self):
        dataset = _build(
            [(HUB, "api.hearthhub-home.com", 1000)] * 8
            + [(HUB, "ntp.ucsd-online.net", 1000)] * 2
            + [(PHONE, "tiktok.com", 1000)] * 9
            + [(PHONE, "cloud.brightbulb.io", 1000)])
        detector = IotDetector(default_iot_signatures(), threshold=0.5)
        scores = detector.scores(dataset)
        assert scores[0] == pytest.approx(0.8)
        assert scores[1] == pytest.approx(0.1)
        assert list(detector.detect(dataset)) == [True, False]

    def test_threshold_semantics(self):
        dataset = _build(
            [(HUB, "api.hearthhub-home.com", 10)] * 5
            + [(HUB, "tiktok.com", 10)] * 5)
        assert IotDetector(default_iot_signatures(),
                           threshold=0.5).detect(dataset)[0]
        assert not IotDetector(default_iot_signatures(),
                               threshold=0.51).detect(dataset)[0]

    def test_subdomain_matching(self):
        signature = IotSignature("x", ("backend.example",))
        assert signature.matches("backend.example")
        assert signature.matches("api.backend.example")
        assert not signature.matches("notbackend.example")

    def test_unannotated_flows_count_against(self):
        dataset = _build(
            [(HUB, "api.hearthhub-home.com", 10)] * 5
            + [(HUB, None, 10)] * 5)
        detector = IotDetector(default_iot_signatures(), threshold=0.6)
        assert detector.scores(dataset)[0] == pytest.approx(0.5)

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            IotDetector(default_iot_signatures(), threshold=0.0)


class TestSwitchDetector:
    def test_byte_share_rule(self):
        dataset = _build([
            (SWITCH, "atum.hac.lp1.d4c.nintendo.net", 9000),
            (SWITCH, "tiktok.com", 1000),
            (PHONE, "accounts.nintendo.com", 100),
            (PHONE, "tiktok.com", 10_000),
        ])
        detector = SwitchDetector()
        shares = detector.shares(dataset)
        assert shares[0] == pytest.approx(0.9)
        assert shares[1] == pytest.approx(100 / 10_100)
        assert list(detector.detect(dataset)) == [True, False]

    def test_exactly_half_detected(self):
        dataset = _build([
            (SWITCH, "nns.srv.nintendo.net", 500),
            (SWITCH, "tiktok.com", 500),
        ])
        assert SwitchDetector(threshold=0.5).detect(dataset)[0]

    def test_nintendo_suffixes(self):
        detector = SwitchDetector()
        assert detector.domain_is_nintendo("nns.srv.nintendo.net")
        assert detector.domain_is_nintendo("accounts.nintendo.com")
        assert not detector.domain_is_nintendo("nintendo.example")
        assert not detector.domain_is_nintendo("notnintendo.net")

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            SwitchDetector(threshold=1.5)
