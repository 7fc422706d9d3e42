"""Tests for application signatures."""

import numpy as np
import pytest

from repro.apps.facebook import (
    facebook_platform_signature,
    instagram_only_signature,
)
from repro.apps.nintendo import (
    nintendo_all_signature,
    nintendo_gameplay_mask,
    nintendo_infrastructure_signature,
)
from repro.apps.registry import default_registry
from repro.apps.signature import AppSignature
from repro.apps.steam import steam_signature
from repro.apps.tiktok import tiktok_signature
from repro.apps.zoom import zoom_signature
from repro.net.ip import Prefix
from repro.net.mac import MacAddress
from repro.pipeline.anonymize import Anonymizer
from repro.pipeline.dataset import NO_DOMAIN
from repro.world.addressing import PublishedRanges
from tests.oracles.dataset import RowFlowDatasetBuilder


def _dataset(rows):
    """rows: (domain_or_None, resp_h)."""
    builder = RowFlowDatasetBuilder(day0=0.0)
    idx = builder.device_index(Anonymizer("s").device(MacAddress(1)))
    for i, (domain, resp_h) in enumerate(rows):
        builder.add_flow(
            ts=float(i), duration=1.0, device_idx=idx, resp_h=resp_h,
            resp_p=443, proto="tcp", orig_bytes=10, resp_bytes=10,
            domain_idx=(NO_DOMAIN if domain is None
                        else builder.domain_index(domain)),
            user_agent=None)
    return builder.finalize()


class TestAppSignature:
    def test_domain_suffix_semantics(self):
        signature = AppSignature("x", domain_suffixes=("zoom.us",))
        assert signature.matches_domain("zoom.us")
        assert signature.matches_domain("us04web.zoom.us")
        assert not signature.matches_domain("notzoom.us")
        assert not signature.matches_domain("zoom.us.evil.example")

    def test_ip_range_matching(self):
        signature = AppSignature(
            "x", ip_ranges=(Prefix.parse("50.0.0.0/24"),))
        assert signature.matches_ip(0x32000001)
        assert not signature.matches_ip(0x32000101)

    def test_empty_signature_rejected(self):
        with pytest.raises(ValueError):
            AppSignature("x")

    def test_flow_mask_combines_domain_and_ip(self):
        signature = AppSignature(
            "x", domain_suffixes=("zoom.us",),
            ip_ranges=(Prefix.parse("50.0.0.0/24"),))
        dataset = _dataset([
            ("zoom.us", 0x01000001),       # domain hit
            (None, 0x32000005),            # IP hit (dnsless media)
            ("tiktok.com", 0x01000002),    # miss
        ])
        assert list(signature.flow_mask(dataset)) == [True, True, False]


class TestZoom:
    def _publication(self):
        return PublishedRanges(
            service="zoom",
            current=(Prefix.parse("50.0.0.0/26"),),
            wayback=(Prefix.parse("50.0.0.128/26"),),
        )

    def test_wayback_extends_coverage(self):
        publication = self._publication()
        full = zoom_signature(publication)
        naive = zoom_signature(publication, include_wayback=False)
        legacy_media_ip = Prefix.parse("50.0.0.128/26").first + 3
        assert full.matches_ip(legacy_media_ip)
        assert not naive.matches_ip(legacy_media_ip)

    def test_rejects_wrong_service(self):
        with pytest.raises(ValueError):
            zoom_signature(PublishedRanges("steam", current=()))

    def test_domains(self):
        signature = zoom_signature(self._publication())
        assert signature.matches_domain("zoom.us")
        assert signature.matches_domain("zoomcdn.net")


class TestPlatformSignatures:
    def test_facebook_platform_covers_shared_domains(self):
        signature = facebook_platform_signature()
        for domain in ("facebook.com", "facebook.net", "fbcdn.net",
                       "scontent.fbcdn.net", "instagram.com",
                       "cdninstagram.com"):
            assert signature.matches_domain(domain), domain

    def test_instagram_marker_is_strict_subset(self):
        platform = set(facebook_platform_signature().domain_suffixes)
        marker = set(instagram_only_signature().domain_suffixes)
        assert marker < platform
        assert "facebook.com" not in marker

    def test_steam_whitelist(self):
        signature = steam_signature()
        for domain in ("store.steampowered.com", "steamcommunity.com",
                       "steamcontent.com"):
            assert signature.matches_domain(domain)
        assert not signature.matches_domain("steam.example")

    def test_tiktok(self):
        signature = tiktok_signature()
        assert signature.matches_domain("tiktokcdn.com")
        assert signature.matches_domain("tiktokv.com")


class TestNintendoSplit:
    def test_gameplay_excludes_infrastructure(self):
        dataset = _dataset([
            ("nns.srv.nintendo.net", 1),              # gameplay
            ("mm.p2p.srv.nintendo.net", 2),           # gameplay
            ("atum.hac.lp1.d4c.nintendo.net", 3),     # download
            ("sun.hac.lp1.d4c.nintendo.net", 4),      # system update
            ("receive-lp1.dg.srv.nintendo.net", 5),   # telemetry
            ("accounts.nintendo.com", 6),             # accounts
            ("tiktok.com", 7),
        ])
        mask = nintendo_gameplay_mask(dataset)
        assert list(mask) == [True, True, False, False, False, False,
                              False]

    def test_all_signature_covers_both(self):
        signature = nintendo_all_signature()
        assert signature.matches_domain("nns.srv.nintendo.net")
        assert signature.matches_domain("atum.hac.lp1.d4c.nintendo.net")

    def test_infra_is_subset_of_all(self):
        all_sig = nintendo_all_signature()
        for suffix in nintendo_infrastructure_signature().domain_suffixes:
            assert all_sig.matches_domain(suffix)


class TestRegistry:
    def test_default_contents(self):
        registry = default_registry()
        for name in ("zoom", "facebook_platform", "instagram_only",
                     "tiktok", "steam", "nintendo",
                     "nintendo_infrastructure"):
            assert name in registry

    def test_zoom_without_publication_is_domain_only(self):
        registry = default_registry()
        assert registry.get("zoom").ip_ranges == ()

    def test_zoom_with_publication_carries_ranges(self):
        publication = PublishedRanges(
            "zoom", current=(Prefix.parse("50.0.0.0/26"),))
        registry = default_registry(publication)
        assert registry.get("zoom").ip_ranges

    def test_duplicate_rejected(self):
        registry = default_registry()
        with pytest.raises(ValueError):
            registry.add(AppSignature("zoom", domain_suffixes=("z.us",)))

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            default_registry().get("myspace")
