"""Tests for the command-line interface (tiny windows to stay fast)."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        from repro.cli import _config_from_args

        # students/seed default at *config resolution*, not in the
        # parser, so presets (and journaled resumes) keep their own
        # values unless explicitly overridden.
        args = build_parser().parse_args(["run"])
        assert args.students is None
        assert args.seed is None
        assert args.out is None
        config = _config_from_args(args)
        assert config.n_students == 100
        assert config.seed == 7

    def test_run_preset_keeps_its_own_seed(self):
        from repro.cli import _PRESETS, _config_from_args

        args = build_parser().parse_args(["run", "--preset", "chaos"])
        assert _config_from_args(args) == _PRESETS["chaos"]()
        overridden = build_parser().parse_args(
            ["run", "--preset", "chaos", "--seed", "99"])
        assert _config_from_args(overridden).seed == 99

    def test_journal_flags_require_journal_dir(self):
        with pytest.raises(SystemExit):
            main(["run", "--resume-run", "abababababab-001"])

    @pytest.mark.parametrize("flags", [
        ["--strict-coverage"],
        ["--baseline"],
    ], ids=["strict-coverage", "baseline"])
    def test_journaled_run_rejects_unsupported_flags(self, flags, tmp_path):
        """The journaled runner would silently ignore these; it refuses
        them before any journal exists."""
        journal_dir = tmp_path / "journal"
        with pytest.raises(SystemExit, match=flags[0]):
            main(["run", "--preset", "chaos", "--journal-dir",
                  str(journal_dir), *flags])
        assert not journal_dir.exists()

    @pytest.mark.parametrize("command, flag", [
        ("run", "--workers"),
        ("run", "--shard-deadline"),
        ("run", "--max-retries"),
        ("checklist", "--workers"),
        ("serve", "--workers"),
        ("query", "--workers"),
        ("eval", "--workers"),
    ])
    def test_sharded_ingest_flags_are_gone(self, command, flag, capsys):
        """Ingest has one in-process path: no command takes a worker
        count, a shard deadline or a shard retry budget."""
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_checklist_flags(self):
        args = build_parser().parse_args(
            ["checklist", "--students", "12", "--baseline"])
        assert args.students == 12
        assert args.baseline


class TestRunAndReport:
    def test_run_persists_and_report_reloads(self, tmp_path, capsys,
                                             monkeypatch):
        """`run --out` writes a loadable bundle; `report` re-renders it.

        A full four-month run is too slow for unit tests, so the study
        window is shrunk via a patched default config period.
        """
        import repro.cli as cli
        from repro import StudyConfig
        from repro.util.timeutil import utc_ts

        # Patch the CLI's config construction to a 10-day window.
        def tiny_config(n_students, seed, **overrides):
            return StudyConfig(
                n_students=n_students, seed=seed,
                start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 11),
                visitor_min_days=3, **overrides)

        monkeypatch.setattr(cli, "StudyConfig", tiny_config)

        out_dir = str(tmp_path / "bundle")
        code = main(["run", "--students", "5", "--seed", "3",
                     "--out", out_dir])
        assert code == 0
        run_output = capsys.readouterr().out
        assert "Headline statistics" in run_output
        assert os.path.exists(os.path.join(out_dir, "flows.npz"))
        assert os.path.exists(os.path.join(out_dir, "config.json"))
        assert os.path.exists(os.path.join(out_dir, "report.txt"))

        # The saved config round-trips through `report`; the persisted
        # window is honoured (config.json carries it). Restore the real
        # constructor for the reload path.
        monkeypatch.setattr(cli, "StudyConfig", StudyConfig)
        with open(os.path.join(out_dir, "config.json")) as fileobj:
            payload = json.load(fileobj)
        assert payload["n_students"] == 5

        code = main(["report", "--data", out_dir])
        assert code == 0
        report_output = capsys.readouterr().out
        assert "Figure 1" in report_output


class TestRunOutput:
    def test_saved_dataset_matches_the_journaled_dataset(self, tmp_path,
                                                         capsys):
        """``--out`` saves the dataset the run analysed, in the order
        the ingest registered its flows: the same bytes a journaled run
        saves as ``filtered.npz``, sidecar included. ``report --data``
        still prints the run's own report."""
        from repro.reliability.crashmatrix import expected_run_id

        out_dir = tmp_path / "out"
        assert main(["run", "--preset", "chaos", "--out",
                     str(out_dir)]) == 0
        printed = capsys.readouterr().out
        assert "Figure 1" in printed
        assert main(["report", "--data", str(out_dir)]) == 0
        assert capsys.readouterr().out == printed

        journal_dir = tmp_path / "runs"
        assert main(["run", "--preset", "chaos", "--journal-dir",
                     str(journal_dir)]) == 0
        run_dir = journal_dir / expected_run_id("chaos")
        for saved, journaled in (("flows.npz", "filtered.npz"),
                                 ("flows.npz.meta.json",
                                  "filtered.npz.meta.json"),
                                 ("report.txt", "report.txt")):
            assert (out_dir / saved).read_bytes() == \
                (run_dir / journaled).read_bytes(), saved


class TestJournaledRunCommand:
    def test_journaled_run_prints_what_a_plain_run_prints(self, tmp_path,
                                                          capsys):
        assert main(["run", "--preset", "chaos"]) == 0
        plain = capsys.readouterr().out
        assert "Figure 1" in plain
        assert main(["run", "--preset", "chaos", "--journal-dir",
                     str(tmp_path / "runs")]) == 0
        assert capsys.readouterr().out == plain

    def test_run_then_flagless_resume(self, tmp_path, capsys):
        """A resume needs only the journal dir and run id: the config
        is recovered from the journal's run_begin record."""
        from repro.reliability.crashmatrix import expected_run_id

        journal_dir = str(tmp_path / "runs")
        assert main(["run", "--preset", "chaos",
                     "--journal-dir", journal_dir]) == 0
        first = capsys.readouterr()
        assert "Figure 1" in first.out

        run_id = expected_run_id("chaos")
        assert main(["run", "--journal-dir", journal_dir,
                     "--resume-run", run_id]) == 0
        second = capsys.readouterr()
        assert second.out == first.out


class TestChecklistCommand:
    def test_checklist_runs_on_tiny_window(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro import StudyConfig
        from repro.util.timeutil import utc_ts

        def tiny_config(n_students, seed, **overrides):
            return StudyConfig(
                n_students=n_students, seed=seed,
                start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 11),
                visitor_min_days=3, **overrides)

        monkeypatch.setattr(cli, "StudyConfig", tiny_config)
        # A 10-day window cannot satisfy lock-down claims; the command
        # must still complete and emit the table (exit code reflects
        # failures).
        code = main(["checklist", "--students", "5", "--seed", "3"])
        output = capsys.readouterr().out
        assert "| id |" in output
        assert code in (0, 1)


class TestExportIngest:
    def test_export_then_ingest(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        from repro import StudyConfig
        from repro.util.timeutil import utc_ts

        def tiny_config(n_students, seed):
            return StudyConfig(
                n_students=n_students, seed=seed,
                start_ts=utc_ts(2020, 2, 1), end_ts=utc_ts(2020, 2, 8),
                visitor_min_days=2)

        monkeypatch.setattr(cli, "StudyConfig", tiny_config)
        out_dir = str(tmp_path / "traces")
        assert main(["export", "--students", "4", "--seed", "5",
                     "--out", out_dir]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(out_dir, "manifest.json"))

        monkeypatch.setattr(cli, "StudyConfig", StudyConfig)
        assert main(["ingest", "--traces", out_dir]) == 0
        output = capsys.readouterr().out
        assert "Headline statistics" in output
