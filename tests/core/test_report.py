"""Tests for the text report renderers (using the mini study)."""

import numpy as np

from repro.core.report import (
    render_fig1,
    render_fig2,
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_summary,
    sparkline,
)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero(self):
        assert set(sparkline([0, 0, 0])) == {" "}

    def test_monotone_levels(self):
        line = sparkline([1, 2, 4, 8], width=4)
        assert len(line) == 4
        assert line[-1] == "█"

    def test_downsampling(self):
        line = sparkline(list(range(1000)), width=50)
        assert len(line) == 50

    def test_nan_treated_as_zero(self):
        line = sparkline([float("nan"), 1.0], width=2)
        assert len(line) == 2
        assert line[0] == " "


class TestRenderers:
    def test_all_renderers_produce_text(self, mini_artifacts):
        outputs = [
            render_fig1(mini_artifacts.fig1()),
            render_fig2(mini_artifacts.fig2()),
            render_fig3(mini_artifacts.fig3()),
            render_fig4(mini_artifacts.fig4()),
            render_fig5(mini_artifacts.fig5()),
            render_fig6(mini_artifacts.fig6()),
            render_fig7(mini_artifacts.fig7()),
            render_fig8(mini_artifacts.fig8()),
            render_summary(mini_artifacts.summary()),
        ]
        for text in outputs:
            assert isinstance(text, str)
            assert "\n" in text
            assert text.startswith(("Figure", "Headline"))

    def test_summary_mentions_key_stats(self, mini_artifacts):
        text = render_summary(mini_artifacts.summary())
        assert "post-shutdown devices" in text
        assert "international" in text
        assert "distinct sites" in text

    def test_fig6_has_all_months(self, mini_artifacts):
        text = render_fig6(mini_artifacts.fig6())
        for month in ("February", "March", "April", "May"):
            assert month in text
