"""Tests for study orchestration (determinism, baseline, config)."""

import numpy as np
import pytest

from repro import LockdownStudy, StudyConfig
from repro.util.timeutil import utc_ts
from tests.conftest import ingest_unfiltered


class TestConfigValidation:
    def test_defaults_valid(self):
        StudyConfig()

    @pytest.mark.parametrize("kwargs", [
        {"n_students": 0},
        {"international_fraction": 1.5},
        {"remain_prob_domestic": -0.1},
        {"visitor_fraction": 2.0},
        {"end_ts": 0.0},
        {"visitor_min_days": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        """Two runs of a tiny two-week study are bit-identical."""
        config = StudyConfig(
            n_students=8, seed=21,
            start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 15))

        def fingerprint():
            dataset = ingest_unfiltered(config)
            return (
                len(dataset),
                float(dataset.total_bytes.sum()),
                float(dataset.ts.sum()),
                tuple(sorted(p.token for p in dataset.devices)),
            )

        assert fingerprint() == fingerprint()

    def test_different_seed_differs(self):
        def fingerprint(seed):
            config = StudyConfig(
                n_students=8, seed=seed,
                start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 8))
            return float(ingest_unfiltered(config).total_bytes.sum())

        assert fingerprint(1) != fingerprint(2)


class TestBaseline2019:
    def test_vs_2019_statistic(self, mini_artifacts, mini_config):
        """The prior-year comparison attaches a positive increase."""
        study = LockdownStudy(mini_config)
        increase = study.run_baseline_2019(mini_artifacts)
        assert increase == mini_artifacts.summary().traffic_increase_vs_2019
        assert increase > 0.1  # lock-down traffic exceeds 2019 baseline


class TestArtifacts:
    def test_masks_aligned_with_dataset(self, mini_artifacts):
        n = mini_artifacts.dataset.n_devices
        assert mini_artifacts.post_shutdown_mask.shape == (n,)
        assert mini_artifacts.international_mask.shape == (n,)
        assert mini_artifacts.classification.classes.shape == (n,)

    def test_progress_callback_invoked(self):
        config = StudyConfig(
            n_students=4, seed=3,
            start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 4))
        messages = []
        LockdownStudy(config).run(progress=messages.append)
        assert any("population" in m for m in messages)
        assert any("pipeline done" in m for m in messages)


class TestArtifactsFromDataset:
    def test_round_trip_reproduces_figures(self, mini_artifacts,
                                           mini_config, tmp_path):
        """Saving the dataset and rebuilding artifacts gives identical
        analyses (everything else is deterministic in the config)."""
        import numpy as np
        from repro.core.study import LockdownStudy
        from repro.pipeline.store import load_dataset, save_dataset

        path = str(tmp_path / "flows")
        save_dataset(mini_artifacts.dataset, path)
        rebuilt = LockdownStudy.artifacts_from_dataset(
            mini_config, load_dataset(path))

        assert np.array_equal(rebuilt.fig1().total,
                              mini_artifacts.fig1().total)
        assert np.array_equal(rebuilt.classification.classes,
                              mini_artifacts.classification.classes)
        assert np.array_equal(rebuilt.international_mask,
                              mini_artifacts.international_mask)
        assert np.array_equal(rebuilt.post_shutdown_mask,
                              mini_artifacts.post_shutdown_mask)
        original = mini_artifacts.summary()
        recomputed = rebuilt.summary()
        assert recomputed.post_shutdown_devices == \
            original.post_shutdown_devices
        assert recomputed.traffic_increase_feb_to_aprmay == \
            original.traffic_increase_feb_to_aprmay


class TestBaselineCohortMatch:
    def test_isin_matches_set_probe(self, mini_artifacts):
        """The vectorized token match equals the per-profile set probe
        (here against the study dataset itself, where the cohort maps
        back onto exactly itself)."""
        from repro.core.study import cohort_token_mask

        dataset = mini_artifacts.dataset
        mask = cohort_token_mask(dataset, mini_artifacts.post_shutdown_mask,
                                 dataset)
        tokens = {
            dataset.devices[index].token
            for index in np.flatnonzero(mini_artifacts.post_shutdown_mask)
        }
        expected = np.array(
            [profile.token in tokens for profile in dataset.devices],
            dtype=bool)
        assert np.array_equal(mask, expected)
        assert np.array_equal(mask, mini_artifacts.post_shutdown_mask)

    def test_empty_cohort(self, mini_artifacts):
        from repro.core.study import cohort_token_mask

        dataset = mini_artifacts.dataset
        empty = np.zeros(dataset.n_devices, dtype=bool)
        mask = cohort_token_mask(dataset, empty, dataset)
        assert mask.shape == (dataset.n_devices,) and not mask.any()


class TestSharedIngest:
    """Every arm goes through the one ingest helper."""

    _config = StudyConfig(
        n_students=4, seed=5,
        start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 22),
        visitor_min_days=3)

    def test_counterfactual_reports_weekly_progress(self):
        """A counterfactual reports once per simulated week, so a
        raising progress hook (the serve deadline) can stop it
        mid-ingest."""
        messages = []
        LockdownStudy(self._config).run_counterfactual(
            progress=messages.append)
        ingested = [m for m in messages if m.startswith("ingested ")]
        assert len(ingested) == 3, messages  # a 21-day window


class TestCounterfactual:
    def test_no_pandemic_control_arm(self):
        """The counterfactual shows no exodus and no Zoom explosion."""
        import numpy as np
        from repro import constants
        from repro.analysis.common import month_day_mask, study_day_count

        config = StudyConfig(n_students=8, seed=17)
        study = LockdownStudy(config)
        actual = study.run()
        counterfactual = study.run_counterfactual()

        # No exodus: the device census stays roughly flat.
        cf_total = counterfactual.fig1().total
        late = cf_total[90:110].mean()
        early = cf_total[5:25].mean()
        assert late > 0.75 * early
        # The actual study collapses over the same span.
        real_total = actual.fig1().total
        assert real_total[90:110].mean() < 0.5 * real_total[5:25].mean()

        # No online term: April Zoom stays near the pre-pandemic level.
        n_days = study_day_count(actual.dataset)
        apr = month_day_mask(actual.dataset, 2020, 4, n_days)
        cf_zoom = counterfactual.fig5().daily_bytes[apr].sum()
        real_zoom = actual.fig5().daily_bytes[apr].sum()
        assert real_zoom > 5 * max(cf_zoom, 1.0)

    def test_phase_override_validated(self):
        from repro.synth.behavior import BehaviorModel
        with pytest.raises(ValueError):
            BehaviorModel({}, phase_override="apocalypse")
