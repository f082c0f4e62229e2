"""The streaming CLI surface: ``repro serve`` (including the CI smoke
mode) and ``repro run --backend`` through the shared resolver."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestServe:
    def test_smoke_exits_zero(self, capsys):
        rc = main(["serve", "--smoke", "--seed", "5", "--window", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all endpoint checks passed" in out
        assert "serving open system on http://127.0.0.1:" in out

    def test_smoke_is_deterministic_given_seed(self, capsys):
        main(["serve", "--smoke", "--seed", "9", "--window", "4"])
        first = capsys.readouterr().out
        main(["serve", "--smoke", "--seed", "9", "--window", "4"])
        second = capsys.readouterr().out

        def stats(text):
            [line] = [ln for ln in text.splitlines() if ln.startswith("smoke: t=")]
            return line

        assert stats(first) == stats(second)

    def test_finite_jobs_drain(self, capsys):
        rc = main([
            "serve", "--smoke", "--jobs", "50", "--window", "10",
            "--max-windows", "1000", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        [line] = [ln for ln in out.splitlines() if ln.startswith("smoke: t=")]
        assert "arrivals=50" in line
        assert "completions=50" in line

    def test_explicit_rate_accepted(self, capsys):
        rc = main([
            "serve", "--smoke", "--rate", "1.5", "--jobs", "30",
            "--window", "5", "--seed", "3",
        ])
        assert rc == 0

    def test_bad_backend_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["serve", "--backend", "fortran", "--smoke"])


class TestRunBackendFlag:
    @pytest.fixture()
    def needs_c(self):
        from repro.sim.backends import c_build

        ok, reason = c_build.availability()
        if not ok:
            pytest.skip(f"c backend unavailable: {reason}")

    def _flow_line(self, capsys):
        out = capsys.readouterr().out
        [line] = [ln for ln in out.splitlines() if "total flow time" in ln]
        return line

    def test_backend_flag_matches_default(self, capsys, needs_c):
        base = ["run", "--jobs", "40", "--seed", "3"]
        assert main(base) == 0
        ref = self._flow_line(capsys)
        assert main(base + ["--backend", "c"]) == 0
        assert self._flow_line(capsys) == ref
        assert main(base + ["--backend", "python"]) == 0
        assert self._flow_line(capsys) == ref

    def test_env_var_respected(self, capsys, monkeypatch, needs_c):
        base = ["run", "--jobs", "40", "--seed", "3"]
        assert main(base) == 0
        ref = self._flow_line(capsys)
        monkeypatch.setenv("REPRO_BACKEND", "c")
        assert main(base) == 0
        assert self._flow_line(capsys) == ref

    def test_backend_composes_with_profile(self, capsys, needs_c):
        # event-order options (profiling changes nothing, but --until
        # does) force the python engine; the flag must still be accepted
        rc = main([
            "run", "--jobs", "30", "--seed", "1", "--backend", "c",
            "--profile", "--until", "10",
        ])
        assert rc == 0
        assert "horizon" in capsys.readouterr().out

    def test_bad_backend_name_rejected_by_parser(self):
        for name in ("fortran", "numpy"):
            with pytest.raises(SystemExit):
                main(["run", "--backend", name])

    def test_run_prints_backend_and_fallback_reason(self, capsys, needs_c):
        base = ["run", "--jobs", "30", "--seed", "1", "--backend", "c"]
        assert main(base) == 0
        assert "backend  : c\n" in capsys.readouterr().out
        assert main(base + ["--until", "10"]) == 0
        assert "backend  : python (fallback: until=" in capsys.readouterr().out
