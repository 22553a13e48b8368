"""mm-lint's stale-suppression audit (``--check-suppressions``)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.base import suppression_comments
from repro.analysis.lint import check_suppressions, main


class TestSuppressionAudit:
    def test_live_suppression_passes(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # mm-lint: disable=REP001\n"
        )
        assert check_suppressions([tmp_path]) == []

    def test_stale_suppression_is_reported(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "def f(sim):\n"
            "    return sim.now  # mm-lint: disable=REP001\n"
        )
        stale = check_suppressions([tmp_path])
        assert [d.code for d in stale] == ["SUP001"]
        assert "REP001" in stale[0].message

    def test_wrong_code_is_stale_even_with_a_live_finding(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "import time\n\ndef f():\n"
            "    return time.time()  # mm-lint: disable=REP001,REP003\n"
        )
        stale = check_suppressions([tmp_path])
        assert len(stale) == 1
        assert "REP003" in stale[0].message

    def test_docstring_lookalike_is_not_audited(self, tmp_path):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            '"""Docs show the escape hatch: # mm-lint: disable=REP003"""\n'
        )
        assert suppression_comments((sim / "mod.py").read_text()) == {}
        assert check_suppressions([tmp_path]) == []

    def test_cli_flag_exits_nonzero_on_stale(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        sim.mkdir()
        (sim / "mod.py").write_text(
            "def f(sim):\n"
            "    return sim.now  # mm-lint: disable=REP001\n"
        )
        assert main([str(tmp_path), "--check-suppressions"]) == 1
        assert "stale suppression" in capsys.readouterr().out

    def test_repo_tree_has_no_stale_suppressions(self):
        src = Path(__file__).resolve().parents[2] / "src"
        assert check_suppressions([src]) == []
