"""Tests for the combined device classifier."""

import numpy as np
import pytest

from repro.devices.classifier import DeviceClassifier
from repro.devices.oui import classify_oui
from repro.devices.types import DeviceClass
from repro.net.mac import MacAddress
from repro.net.oui_db import default_oui_database
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from tests.oracles.dataset import RowFlowDatasetBuilder

OUI_DB = default_oui_database()
MOBILE_OUI = OUI_DB.vendor_ouis("mobile")[0]
LAPTOP_OUI = OUI_DB.vendor_ouis("laptop")[0]
GENERIC_OUI = OUI_DB.vendor_ouis("generic")[0]
CONSOLE_OUI = OUI_DB.vendor_ouis("console")[0]


def _mac(oui, suffix=1):
    return MacAddress((oui << 24) | suffix)


def _laa_mac(suffix=1):
    return MacAddress((0x02 << 40) | suffix)


class _DatasetMaker:
    def __init__(self):
        self.builder = RowFlowDatasetBuilder(day0=0.0)
        self.anonymizer = Anonymizer("s")
        self._counter = 0

    def device(self, mac, flows=(), user_agent=None):
        """flows: list of (domain_or_None, total_bytes)."""
        idx = self.builder.device_index(self.anonymizer.device(mac))
        if not flows:
            flows = [("wikipedia.org", 100)]
        for domain, total_bytes in flows:
            domain_idx = (NO_DOMAIN if domain is None
                          else self.builder.domain_index(domain))
            self.builder.add_flow(
                ts=float(self._counter), duration=1.0, device_idx=idx,
                resp_h=1000 + self._counter, resp_p=443, proto="tcp",
                orig_bytes=total_bytes // 2,
                resp_bytes=total_bytes - total_bytes // 2,
                domain_idx=domain_idx, user_agent=user_agent)
            self._counter += 1
        return idx

    def finalize(self):
        return self.builder.finalize()


class TestClassifyOui:
    def test_hints(self):
        assert classify_oui(MOBILE_OUI, OUI_DB) == DeviceClass.MOBILE
        assert classify_oui(LAPTOP_OUI, OUI_DB) == DeviceClass.LAPTOP_DESKTOP
        assert classify_oui(CONSOLE_OUI, OUI_DB) == DeviceClass.IOT

    def test_generic_gives_no_signal(self):
        assert classify_oui(GENERIC_OUI, OUI_DB) is None

    def test_unknown_and_none(self):
        assert classify_oui(0xD41E70, OUI_DB) is None
        assert classify_oui(None, OUI_DB) is None


class TestDeviceClassifier:
    def test_oui_classification(self):
        maker = _DatasetMaker()
        maker.device(_mac(MOBILE_OUI))
        maker.device(_mac(LAPTOP_OUI, 2))
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(DeviceClass.MOBILE)
        assert result.classes[1] == DeviceClass.code(
            DeviceClass.LAPTOP_DESKTOP)

    def test_ua_rescues_randomized_mac(self):
        maker = _DatasetMaker()
        maker.device(_laa_mac(),
                     user_agent="Mozilla/5.0 (iPhone; CPU iPhone OS 13_3 "
                                "like Mac OS X)")
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(DeviceClass.MOBILE)

    def test_conflicting_uas_abstain(self):
        maker = _DatasetMaker()
        idx = maker.device(
            _laa_mac(),
            flows=[("wikipedia.org", 100)],
            user_agent="Mozilla/5.0 (iPhone; CPU iPhone OS 13_3)")
        # Add a second flow with a desktop UA on the same device.
        maker.builder.add_flow(
            ts=99.0, duration=1.0, device_idx=idx, resp_h=5, resp_p=443,
            proto="tcp", orig_bytes=1, resp_bytes=1,
            domain_idx=NO_DOMAIN,
            user_agent="Mozilla/5.0 (Windows NT 10.0; Win64)")
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(
            DeviceClass.UNCLASSIFIED)

    def test_silent_randomized_mac_unclassified(self):
        maker = _DatasetMaker()
        maker.device(_laa_mac())
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(
            DeviceClass.UNCLASSIFIED)

    def test_unregistered_oui_unclassified(self):
        maker = _DatasetMaker()
        maker.device(_mac(0xD41E70))
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(
            DeviceClass.UNCLASSIFIED)

    def test_iot_detector_fallback(self):
        maker = _DatasetMaker()
        maker.device(_laa_mac() if False else _mac(0xD41E70),
                     flows=[("api.hearthhub-home.com", 100)] * 9
                     + [("wikipedia.org", 100)])
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.classes[0] == DeviceClass.code(DeviceClass.IOT)
        assert result.iot_scores[0] == pytest.approx(0.9)

    def test_switch_forced_into_iot(self):
        """A Switch with a generic OUI still lands in the IoT class."""
        maker = _DatasetMaker()
        maker.device(_mac(GENERIC_OUI),
                     flows=[("nns.srv.nintendo.net", 10_000),
                            ("wikipedia.org", 100)])
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert result.is_switch[0]
        assert result.classes[0] == DeviceClass.code(DeviceClass.IOT)

    def test_counts(self):
        maker = _DatasetMaker()
        maker.device(_mac(MOBILE_OUI))
        maker.device(_laa_mac(7))
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        counts = result.counts()
        assert counts[DeviceClass.MOBILE] == 1
        assert counts[DeviceClass.UNCLASSIFIED] == 1
        assert sum(counts.values()) == 2

    def test_class_mask(self):
        maker = _DatasetMaker()
        maker.device(_mac(MOBILE_OUI))
        maker.device(_mac(LAPTOP_OUI, 2))
        result = DeviceClassifier(OUI_DB).classify(maker.finalize())
        assert list(result.class_mask(DeviceClass.MOBILE)) == [True, False]
