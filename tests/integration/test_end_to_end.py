"""End-to-end integration tests over the mini study fixture.

These check system-level invariants and paper-shape directions on a
complete (if miniature) run: synthesis -> tap -> flows -> DHCP/DNS
normalization -> anonymization -> filtering -> classification ->
analyses.
"""

import numpy as np
import pytest

from repro import constants
from repro.analysis.common import month_day_mask, study_day_count
from repro.devices.types import DeviceClass
from repro.synth.devices import DeviceKind
from repro.util.timeutil import DAY


class TestPipelineInvariants:
    def test_full_attribution(self, mini_artifacts):
        """Every flow admitted by the tap is attributable via DHCP logs."""
        assert mini_artifacts.pipeline_stats.attribution_rate == 1.0

    def test_flow_fields_sane(self, mini_artifacts):
        dataset = mini_artifacts.dataset
        assert (dataset.duration >= 0).all()
        assert (dataset.orig_bytes >= 0).all()
        assert (dataset.resp_bytes > 0).all()
        assert (dataset.device >= 0).all()
        assert (dataset.device < dataset.n_devices).all()
        n_days = study_day_count(dataset)
        assert (dataset.day >= 0).all()
        assert (dataset.day < n_days).all()

    def test_excluded_operators_absent(self, mini_artifacts):
        """No flow terminates inside a tap-excluded operator block."""
        dataset = mini_artifacts.dataset
        blocks = mini_artifacts.generator.plan.excluded_blocks(
            mini_artifacts.config.excluded_operators)
        for block in blocks:
            inside = ((dataset.resp_h >= block.first)
                      & (dataset.resp_h <= block.last))
            assert not inside.any(), str(block)

    def test_tap_actually_dropped_traffic(self, mini_artifacts):
        """The excluded networks carried real (generated) traffic."""
        # The tap object lives inside the pipeline which is transient;
        # verify indirectly: popular excluded apps (Apple services) are
        # in every persona's profile yet produce no flows.
        dataset = mini_artifacts.dataset
        assert not dataset.flows_to_domains(["apple.com", "icloud.com"]).any()
        assert dataset.flows_to_domains(["zoom.us"]).any()

    def test_device_tokens_opaque_and_unique(self, mini_artifacts):
        tokens = [p.token for p in mini_artifacts.dataset.devices]
        assert len(tokens) == len(set(tokens))
        for device in mini_artifacts.generator.population.devices:
            assert str(device.mac) not in tokens


class TestVisitorFilter:
    def test_visitor_devices_dropped(self, mini_artifacts, ground_truth):
        """No retained device belongs to a visitor persona."""
        _, persona_of = ground_truth
        for persona in persona_of.values():
            assert not persona.is_visitor

    def test_filter_removed_some_devices(self, mini_artifacts,
                                         mini_unfiltered):
        assert (mini_unfiltered.n_devices
                > int(mini_artifacts.retained_devices.sum()))

    def test_retained_devices_have_min_days(self, mini_artifacts,
                                            mini_unfiltered):
        for profile in mini_unfiltered.devices:
            if mini_artifacts.retained_devices[profile.index]:
                assert (profile.active_day_count
                        >= mini_artifacts.config.visitor_min_days)


class TestClassificationAccuracy:
    def test_affirmative_accuracy(self, mini_artifacts, ground_truth):
        """Affirmatively classified devices are mostly correct.

        The paper's manual review found 84/100 correct with errors
        dominated by conservative omissions, not mislabels.
        """
        device_of, _ = ground_truth
        classes = mini_artifacts.classification.classes
        correct = wrong = 0
        for index, sim_device in device_of.items():
            predicted = DeviceClass.name(int(classes[index]))
            if predicted == DeviceClass.UNCLASSIFIED:
                continue
            if predicted == sim_device.coarse_class:
                correct += 1
            else:
                wrong += 1
        assert correct / (correct + wrong) > 0.9

    def test_unclassified_class_nonempty(self, mini_artifacts):
        counts = mini_artifacts.classification.counts()
        assert counts[DeviceClass.UNCLASSIFIED] > 0
        assert counts[DeviceClass.MOBILE] > 0
        assert counts[DeviceClass.LAPTOP_DESKTOP] > 0
        assert counts[DeviceClass.IOT] > 0

    def test_switch_detection(self, mini_artifacts, ground_truth):
        device_of, _ = ground_truth
        detected = mini_artifacts.classification.is_switch
        true_switches = {index for index, dev in device_of.items()
                         if dev.kind == DeviceKind.SWITCH}
        detected_set = set(np.flatnonzero(detected))
        known = detected_set & set(device_of)
        # No false positives among matched devices; decent recall.
        assert known <= true_switches | set()
        if true_switches:
            recall = len(known & true_switches) / len(true_switches)
            assert recall > 0.6


class TestInternationalClassifier:
    def test_conservative_no_false_positives(self, mini_artifacts,
                                             ground_truth):
        """Personal devices flagged international really are.

        IoT-class devices (notably Switches, whose backends are partly
        hosted in Tokyo) can midpoint abroad regardless of their owner;
        the paper keeps fixed-use devices out of its sub-population
        analyses for exactly this reason, so they are exempt here.
        """
        _, persona_of = ground_truth
        iot = mini_artifacts.classification.class_mask(DeviceClass.IOT)
        flagged = np.flatnonzero(
            mini_artifacts.international_mask & ~iot)
        for index in flagged:
            persona = persona_of.get(int(index))
            if persona is not None:
                assert persona.is_international

    def test_some_international_found(self, mini_artifacts):
        post = mini_artifacts.post_shutdown_mask
        intl = mini_artifacts.international_mask
        assert (intl & post).sum() > 0


class TestPaperShapes:
    def test_fig1_exodus(self, mini_artifacts):
        result = mini_artifacts.fig1()
        assert result.peak > 3 * result.trough_after_peak
        peak_day = result.day_ts[int(result.total.argmax())]
        assert peak_day < constants.STAY_AT_HOME

    def test_fig1_weekend_dips_persist(self, mini_artifacts):
        """Weekday counts exceed adjacent weekend counts pre-shutdown."""
        result = mini_artifacts.fig1()
        # First full week of February 2020: Mon 3rd .. Sun 9th.
        monday = 2  # Feb 3 is day index 2
        weekday_mean = result.total[monday:monday + 5].mean()
        weekend_mean = result.total[monday + 5:monday + 7].mean()
        assert weekday_mean > weekend_mean

    def test_fig2_means_exceed_medians(self, mini_artifacts):
        result = mini_artifacts.fig2()
        ratio = result.skew_ratio(DeviceClass.IOT)
        assert np.isnan(ratio) or ratio > 1.0

    def test_fig5_zoom_appears_with_online_term(self, mini_artifacts):
        result = mini_artifacts.fig5()
        n_days = len(result.daily_bytes)
        dataset = mini_artifacts.dataset
        feb = month_day_mask(dataset, 2020, 2, n_days)
        apr = month_day_mask(dataset, 2020, 4, n_days)
        assert result.daily_bytes[apr].sum() > 20 * max(
            result.daily_bytes[feb].sum(), 1.0)

    def test_fig5_weekday_dominates_weekend(self, mini_artifacts):
        result = mini_artifacts.fig5()
        assert result.weekday_hourly.sum() > result.weekend_hourly.sum()
        assert result.weekday_business_share() > 0.6

    def test_summary_traffic_increase(self, mini_artifacts):
        stats = mini_artifacts.summary()
        assert stats.traffic_increase_feb_to_aprmay > 0.2
        assert stats.distinct_sites_increase > 0.1
        assert stats.post_shutdown_devices > 0
        assert 0.0 <= stats.international_fraction <= 1.0

    def test_fig3_lockdown_weekday_higher(self, mini_artifacts):
        result = mini_artifacts.fig3()
        feb_label = "2020-02-20"
        april_label = "2020-04-09"
        feb = result.weeks[feb_label]
        apr = result.weeks[april_label]
        # Weekday daytime hours (the week starts on a Thursday): the
        # first two days are weekdays; compare their 9am-5pm volume.
        daytime = np.r_[9:17, 33:41]
        assert apr[daytime].sum() > feb[daytime].sum()

    def test_fig6_computes_for_all_platforms(self, mini_artifacts):
        result = mini_artifacts.fig6()
        for platform in ("facebook", "instagram", "tiktok"):
            months = result.stats[platform]["domestic"]
            assert months  # at least one month has data

    def test_fig7_monthly_tables_complete(self, mini_artifacts):
        result = mini_artifacts.fig7()
        for population in ("domestic", "international"):
            assert len(result.bytes_stats[population]) == 4
            assert len(result.connection_stats[population]) == 4

    def test_fig8_census(self, mini_artifacts):
        result = mini_artifacts.fig8()
        assert result.switches_pre_shutdown >= result.cohort_size
        assert (result.daily_gameplay_bytes >= 0).all()


class TestCaching:
    def test_figures_cached(self, mini_artifacts):
        assert mini_artifacts.fig1() is mini_artifacts.fig1()
        assert mini_artifacts.summary() is mini_artifacts.summary()
