"""Tests for the command-line interface."""

import pytest

from repro.analysis import contention
from repro.cli import _FAST, EXPERIMENTS, main


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    @pytest.mark.parametrize("experiment", _FAST)
    def test_fast_experiments_run(self, experiment, capsys):
        assert main([experiment]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_fig4_runs(self, capsys, monkeypatch):
        """``main`` through ``_cmd_fig4`` and ``contention_sweep`` to the
        1/2/4/8-thread table, at the smallest scale (the sweep's own
        check is ``tests/test_analysis.py::test_sweep_structure``)."""
        small = {"small": contention.DEFAULT_SCALES["small"]}
        monkeypatch.setattr(contention, "DEFAULT_SCALES", small)
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "small" in out and "medium" not in out

    def test_unknown_experiment_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_every_registered_experiment_has_description(self):
        for name, (description, handler) in EXPERIMENTS.items():
            assert description
            assert callable(handler)

    @pytest.mark.slow
    def test_quick_trained_experiment(self, capsys):
        assert main(["fig6", "--quick"]) == 0
        assert "sparsity" in capsys.readouterr().out
