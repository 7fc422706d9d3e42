"""Tests for the synthetic resolver."""

import pytest

from repro.dns.resolver import SyntheticResolver
from repro.util.rng import RngFactory
from repro.world.addressing import build_address_plan
from repro.world.catalog import default_directory


@pytest.fixture(scope="module")
def plan():
    return build_address_plan(default_directory(longtail_sites=5))


@pytest.fixture()
def resolver(plan):
    return SyntheticResolver(plan, RngFactory(3))


class TestResolve:
    def test_answers_inside_service_prefixes(self, plan, resolver):
        answers = resolver.resolve("zoom.us", 1000.0)
        assert answers
        prefixes = plan.prefixes_for_service("zoom")
        for address in answers:
            assert any(p.contains(address) for p in prefixes)

    def test_nxdomain(self, resolver):
        assert resolver.resolve("does-not-exist.example", 0.0) == ()

    def test_deterministic_within_epoch(self, resolver):
        assert resolver.resolve("zoom.us", 100.0) == \
            resolver.resolve("zoom.us", 200.0)

    def test_rotation_across_epochs(self, resolver):
        early = resolver.resolve("facebook.com", 0.0)
        later = {resolver.resolve("facebook.com", hour * 3600.0 + 10)
                 for hour in range(1, 12)}
        assert any(answers != early for answers in later)

    def test_answers_unique(self, resolver):
        for hour in range(6):
            answers = resolver.resolve("zoom.us", hour * 3600.0)
            assert len(answers) == len(set(answers))

    def test_subdomain_resolves_via_catalog(self, resolver):
        assert resolver.resolve("us04web.zoom.us", 0.0)


class TestQuery:
    def test_answer_count_validated(self, plan):
        with pytest.raises(ValueError):
            SyntheticResolver(plan, RngFactory(1), answer_count=0)
