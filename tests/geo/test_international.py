"""Tests for the domestic/international midpoint classifier."""

import numpy as np
import pytest

from repro.geo.borders import point_in_us
from repro.geo.international import InternationalClassifier
from repro.net.ip import Prefix, ip_to_int
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN, FlowDatasetBuilder
from repro.util.timeutil import utc_ts
from repro.world.geo import GeoDatabase, GeoLocation
from tests.oracles.dataset import RowFlowDatasetBuilder

US_IP = ip_to_int("50.0.0.10")
CN_IP = ip_to_int("50.0.1.10")
CDN_IP = ip_to_int("50.0.2.10")
FEB = utc_ts(2020, 2, 10)
MARCH = utc_ts(2020, 3, 10)


@pytest.fixture(scope="module")
def geo_db():
    db = GeoDatabase()
    db.add(Prefix.parse("50.0.0.0/24"), GeoLocation("US", 39.0, -98.0))
    db.add(Prefix.parse("50.0.1.0/24"), GeoLocation("CN", 39.9, 116.4))
    db.add(Prefix.parse("50.0.2.0/24"),
           GeoLocation("US", 32.7, -117.2, "San Diego POP"))
    return db


class _Maker:
    def __init__(self):
        self.builder = RowFlowDatasetBuilder(day0=utc_ts(2020, 2, 1))
        self.anonymizer = Anonymizer("s")
        self._counter = 0

    def flows(self, mac_value, entries):
        """entries: (ts, server_ip, total_bytes, domain_or_None)."""
        idx = self.builder.device_index(
            self.anonymizer.device(MacAddress(mac_value)))
        for ts, server, total_bytes, domain in entries:
            domain_idx = (NO_DOMAIN if domain is None
                          else self.builder.domain_index(domain))
            self.builder.add_flow(
                ts=ts, duration=1.0, device_idx=idx, resp_h=server,
                resp_p=443, proto="tcp", orig_bytes=total_bytes // 2,
                resp_bytes=total_bytes - total_bytes // 2,
                domain_idx=domain_idx, user_agent=None)
            self._counter += 1
        return idx


class TestBorders:
    def test_contiguous(self):
        assert point_in_us(39.0, -98.0)      # Kansas
        assert point_in_us(32.7, -117.2)     # San Diego
        assert not point_in_us(39.9, 116.4)  # Beijing
        assert not point_in_us(19.4, -99.1)  # Mexico City

    def test_alaska_hawaii(self):
        assert point_in_us(61.2, -149.9)     # Anchorage
        assert point_in_us(21.3, -157.9)     # Honolulu

    def test_pacific(self):
        assert not point_in_us(30.0, -150.0)


class TestClassifier:
    def test_domestic_device(self, geo_db):
        maker = _Maker()
        maker.flows(1, [(FEB, US_IP, 1000, "wikipedia.org")])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert report.classifiable[0]
        assert not report.is_international[0]

    def test_foreign_dominated_device(self, geo_db):
        maker = _Maker()
        maker.flows(1, [
            (FEB, CN_IP, 9000, "weibo.com"),
            (FEB + 10, US_IP, 1000, "wikipedia.org"),
        ])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert report.is_international[0]

    def test_conservative_for_balanced_mix(self, geo_db):
        """Half-US half-foreign bytes: midpoint over the Pacific, but a
        60/40 US-leaning mix stays domestic."""
        maker = _Maker()
        maker.flows(1, [
            (FEB, CN_IP, 4000, "weibo.com"),
            (FEB + 10, US_IP, 6000, "wikipedia.org"),
        ])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert not report.is_international[0]

    def test_cdn_exclusion_changes_verdict(self, geo_db):
        """Without CDN exclusion, local-POP bytes mask foreign traffic."""
        maker = _Maker()
        maker.flows(1, [
            (FEB, CN_IP, 5000, "weibo.com"),
            (FEB + 10, CDN_IP, 80_000, "akamaiedge.net"),
            (FEB + 20, US_IP, 1000, "wikipedia.org"),
        ])
        dataset = maker.builder.finalize()
        with_exclusion = InternationalClassifier(
            geo_db, excluded_domain_suffixes=("akamaiedge.net",))
        without_exclusion = InternationalClassifier(geo_db)
        assert with_exclusion.classify(dataset).is_international[0]
        assert not without_exclusion.classify(dataset).is_international[0]

    def test_only_february_traffic_counts(self, geo_db):
        maker = _Maker()
        maker.flows(1, [
            (FEB, US_IP, 1000, "wikipedia.org"),
            (MARCH, CN_IP, 99_000, "weibo.com"),  # outside reference month
        ])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert not report.is_international[0]

    def test_device_without_february_traffic_unclassifiable(self, geo_db):
        maker = _Maker()
        maker.flows(1, [(MARCH, US_IP, 1000, "wikipedia.org")])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert not report.classifiable[0]
        assert not report.is_international[0]

    def test_unlocatable_ips_ignored(self, geo_db):
        maker = _Maker()
        maker.flows(1, [
            (FEB, ip_to_int("99.0.0.1"), 50_000, None),  # no geo entry
            (FEB + 5, CN_IP, 1000, "weibo.com"),
        ])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert report.is_international[0]

    def test_multiple_devices_independent(self, geo_db):
        maker = _Maker()
        maker.flows(1, [(FEB, US_IP, 1000, "wikipedia.org")])
        maker.flows(2, [(FEB, CN_IP, 1000, "weibo.com")])
        maker.flows(3, [(MARCH, US_IP, 1000, "wikipedia.org")])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert list(report.is_international) == [False, True, False]
        assert list(report.classifiable) == [True, True, False]

    def test_international_fraction(self, geo_db):
        maker = _Maker()
        maker.flows(1, [(FEB, US_IP, 1000, "wikipedia.org")])
        maker.flows(2, [(FEB, CN_IP, 1000, "weibo.com")])
        report = InternationalClassifier(geo_db).classify(
            maker.builder.finalize())
        assert report.international_fraction() == pytest.approx(0.5)
        mask = np.array([True, False])
        assert report.international_fraction(mask) == 0.0

    def test_empty_dataset(self, geo_db):
        dataset = FlowDatasetBuilder(day0=0.0).finalize()
        report = InternationalClassifier(geo_db).classify(dataset)
        assert report.is_international.size == 0
