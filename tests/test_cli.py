import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wtalab import cli
from wtalab.cli import main


def read_csv(path: Path) -> list[dict]:
    import csv

    with path.open() as fh:
        return list(csv.DictReader(fh))


class TestBuild:
    def test_two_inhibitor_neuron_count(self, tmp_path):
        out = tmp_path / "net.json"
        assert main(["build", "--variant", "two-inhibitor", "--n", "8",
                     "--gamma", "20", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["neurons"]) == 18

    def test_log_inhibitor_neuron_count(self, tmp_path):
        out = tmp_path / "net.json"
        main(["build", "--variant", "log-inhibitor", "--n", "8",
              "--gamma", "20", "--out", str(out)])
        assert len(json.loads(out.read_text())["neurons"]) == 20

    def test_invalid_gamma_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["build", "--variant", "two-inhibitor", "--n", "4",
                  "--gamma", "-1", "--out", str(tmp_path / "x.json")])
        assert exit_info.value.code == 2
        assert "InvalidGamma" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_is_usage_error(self, tmp_path, capsys, gamma):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--variant", "two-inhibitor", "--n", "4", "--gamma", gamma,
                  "--tc", "50", "--trials", "5", "--seed", "1",
                  "--out", str(tmp_path / "g")])
        assert exit_info.value.code == 2
        assert "InvalidGamma" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestRunAndSweep:
    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--n", "2", "--gamma", "10", "--ts", "3",
                  "--tc", "20", "--out", str(tmp_path / "r")])
        assert exit_info.value.code == 2

    def test_run_outputs_and_manifest_rerun(self, tmp_path):
        out = tmp_path / "r"
        argv = ["run", "--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20",
                "--trials", "200", "--seed", "5", "--out", str(out)]
        assert main(argv) == 0
        csv_text = (tmp_path / "r.csv").read_text()
        json_rows = json.loads((tmp_path / "r.json").read_text())
        assert json_rows[0]["n"] == 2
        manifest = tmp_path / "r.manifest.json"
        assert manifest.exists()
        assert main(["rerun", str(manifest)]) == 0
        assert (tmp_path / "r.csv").read_text() == csv_text

    def test_sweep_over_n(self, tmp_path):
        out = tmp_path / "s"
        assert main(["sweep", "--n", "2,3", "--gamma", "10", "--ts", "3",
                     "--tc", "20", "--trials", "100", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = read_csv(tmp_path / "s.csv")
        assert [r["n"] for r in rows] == ["2", "3"]
        assert list(rows[0]) == [
            "variant", "n", "gamma", "t_s", "delta", "t_c", "trials",
            "success_frac", "wilson_lo", "wilson_hi", "mean_tconv",
            "median_tconv", "timeouts",
        ]

    def test_sweep_single_n(self, tmp_path):
        out = tmp_path / "s1"
        assert main(["sweep", "--n", "2", "--gamma", "10", "--ts", "3",
                     "--tc", "20", "--trials", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(read_csv(tmp_path / "s1.csv")) == 1

    def test_run_rejects_n_list(self, tmp_path):
        code = main(["run", "--n", "2,3", "--gamma", "10", "--ts", "3",
                     "--tc", "20", "--trials", "10", "--seed", "1",
                     "--out", str(tmp_path / "r")])
        assert code == 3

    def test_per_trial_log_with_labels(self, tmp_path):
        out = tmp_path / "logged"
        assert main(["run", "--n", "2", "--gamma", "12", "--ts", "3",
                     "--tc", "20", "--trials", "50", "--seed", "5",
                     "--log-trials", "--out", str(out)]) == 0
        rows = read_csv(tmp_path / "logged.trials.csv")
        assert len(rows) == 50
        assert rows[0]["labels"] == "active;good;valid_wta"

    def test_trial_log_in_manifest_and_rerun(self, tmp_path):
        out = tmp_path / "logged"
        assert main(["run", "--n", "3", "--gamma", "4", "--ts", "3", "--tc", "10",
                     "--trials", "40", "--seed", "7", "--log-trials", "--out", str(out)]) == 0
        log = tmp_path / "logged.trials.csv"
        manifest = tmp_path / "logged.manifest.json"
        assert str(log) in json.loads(manifest.read_text())["outputs"]
        digest = hashlib.sha256(log.read_bytes()).hexdigest()
        log.unlink()
        assert main(["rerun", str(manifest)]) == 0
        assert hashlib.sha256(log.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("variant, n, digest", [
        ("two-inhibitor", 3, "42e5c23a64b29eba9a0e4a2ded9e800549953eb80fc426787ac2eb990287e3b1"),
        ("single-inhibitor", 3, "0e9e232830a14b94592c79c276a2580a74d63a89ec3cdf0f55a2afd3539574b0"),
        ("log-inhibitor", 4, "05ab5706412792326358a77a50e6858edd9bbe8113a99f6b6105bacbd34f8dc1"),
    ])
    def test_trial_log_pinned(self, tmp_path, variant, n, digest):
        # weak gamma and a short t_c, so the final windows cover every label
        # of the family and some trials time out
        out = tmp_path / "pinned"
        assert main(["run", "--variant", variant, "--n", str(n), "--gamma", "2.5",
                     "--ts", "3", "--tc", "6", "--trials", "60", "--seed", "11",
                     "--log-trials", "--out", str(out)]) == 0
        data = (tmp_path / "pinned.trials.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_sweep_grid_over_ts(self, tmp_path):
        out = tmp_path / "grid"
        assert main(["sweep", "--n", "2", "--gamma", "10", "--ts", "3,5",
                     "--tc", "30", "--trials", "50", "--seed", "1",
                     "--out", str(out)]) == 0
        rows = read_csv(tmp_path / "grid.csv")
        assert [r["t_s"] for r in rows] == ["3", "5"]

    def test_init_from_file(self, tmp_path):
        window = [[1, 1, 1, 0, 1, 0]]  # valid window: winner y_0 plus a_s
        wfile = tmp_path / "win.json"
        wfile.write_text(json.dumps(window))
        out = tmp_path / "wrun"
        assert main(["run", "--n", "2", "--gamma", "12", "--ts", "3",
                     "--tc", "20", "--trials", "100", "--seed", "2",
                     "--init", "file", "--init-file", str(wfile),
                     "--out", str(out)]) == 0
        rows = json.loads((tmp_path / "wrun.json").read_text())
        assert rows[0]["mean_tconv"] == 0.0  # already converged at frame 0

    def test_auto_parameters(self, tmp_path):
        out = tmp_path / "a"
        assert main(["run", "--n", "8", "--gamma-auto", "--tc-auto",
                     "--ts", "5", "--delta", "0.1", "--trials", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        rows = json.loads((tmp_path / "a.json").read_text())
        assert rows[0]["t_c"] == 1245  # ceil(72 * 4 * (log2(10) + 1))


class TestOracle:
    def test_cdf_rows_nondecreasing(self, tmp_path):
        out = tmp_path / "cdf"
        assert main(["oracle", "--n", "2", "--gamma", "10", "--ts", "3",
                     "--tmax", "50", "--out", str(out)]) == 0
        rows = read_csv(tmp_path / "cdf.csv")
        assert len(rows) == 51
        values = [float(r["p_exact"]) for r in rows]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_state_space_guard_exit_code(self, tmp_path):
        # the log-inhibitor family (history 2) runs on the window chain
        code = main(["oracle", "--variant", "log-inhibitor", "--n", "25", "--gamma", "10",
                     "--ts", "3", "--tmax", "5", "--out", str(tmp_path / "big")])
        assert code == 4

    def test_two_inhibitor_beyond_the_window_chain_answers(self, tmp_path):
        code = main(["oracle", "--n", "25", "--gamma", "10", "--ts", "3",
                     "--tmax", "5", "--out", str(tmp_path / "n25")])
        assert code == 0
        rows = read_csv(tmp_path / "n25.csv")
        assert len(rows) == 6 and float(rows[-1]["p_exact"]) > 0.0

    def test_hold_longer_than_the_horizon_reads_zero(self, tmp_path):
        # no counter row is built for a hold the horizon cannot reach
        code = main(["oracle", "--n", "2", "--gamma", "5", "--ts", str(1 << 62),
                     "--tmax", "5", "--out", str(tmp_path / "o")])
        assert code == 0
        rows = read_csv(tmp_path / "o.csv")
        assert [float(r["p_exact"]) for r in rows] == [0.0] * 6

    def test_lumped_guard_exit_code(self, tmp_path):
        code = main(["oracle", "--n", str(1 << 16), "--gamma", "10", "--ts", "3",
                     "--tmax", "5", "--out", str(tmp_path / "huge")])
        assert code == 4


_HUGE = str(1 << 56)  # rows enough for 0.5 EiB arrays, which numpy refuses on any host


class TestOutOfMemoryExitFour:
    """A request for arrays too large to allocate is a resource limit."""

    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "2", "--gamma", "5", "--ts", "2", "--tmax", _HUGE],
        ["run", "--n", "4", "--gamma", "5", "--tc", "10", "--seed", "1", "--trials", _HUGE],
        ["stabilize-probe", "--n", "4", "--gamma", "5", "--tc", "10", "--seed", "1",
         "--trials", _HUGE],
        ["lemma-check", "--lemma", "3.9.2", "--samples", _HUGE],
    ], ids=lambda argv: argv[0])
    def test_exit_four(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:") and err.count("\n") == 1

    # Past numpy's largest array (2^63 - 1 bytes) numpy raises ValueError, not
    # MemoryError, and np.arange(2^63 - 1) comes back empty: each count is
    # checked where it is built.
    @pytest.mark.parametrize("count", [str(2**63 - 1), str(2**62)], ids=["2^63-1", "2^62"])
    @pytest.mark.parametrize("argv", [
        ["oracle", "--n", "2", "--gamma", "5", "--ts", "2", "--tmax"],
        ["run", "--n", "4", "--gamma", "5", "--tc", "10", "--seed", "1", "--trials"],
        ["stabilize-probe", "--n", "4", "--gamma", "5", "--tc", "10", "--seed", "1",
         "--trials"],
        ["lemma-check", "--lemma", "3.9.2", "--samples"],
    ], ids=lambda argv: argv[0])
    def test_count_past_numpys_largest_array(self, tmp_path, capsys, argv, count):
        assert main(argv + [count, "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:") and err.count("\n") == 1
        assert "numpy's largest array" in err


class TestLemmaCheck:
    def test_single_id(self, tmp_path):
        out = tmp_path / "lc"
        code = main(["lemma-check", "--lemma", "3.9.2", "--n", "8",
                     "--gamma", "14", "--samples", "20000",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads((tmp_path / "lc.json").read_text())
        assert rows[0]["lemma"] == "3.9.2"
        assert abs(rows[0]["frequency"] - 0.5) < 0.02

    def test_unknown_id_maps_to_validation_exit(self, tmp_path):
        code = main(["lemma-check", "--lemma", "9.9", "--out",
                     str(tmp_path / "bad")])
        assert code == 3


class TestProbeCommand:
    def test_probe_report(self, tmp_path):
        out = tmp_path / "probe"
        code = main(["stabilize-probe", "--n", "4", "--gamma-auto",
                     "--tc-auto", "--ts", "5", "--delta", "0.1",
                     "--trials", "100", "--seed", "2",
                     "--perturbations", "2", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "probe.probe.json").read_text())
        assert len(report["reconvergence_fractions"]) == 2


_TRIAL_FLAGS = ["--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20", "--trials", "30",
                "--seed", "3"]
# one small call of every command that writes a manifest
_RERUN_CALLS = {
    "build": ["build", "--variant", "log-inhibitor", "--n", "3", "--gamma", "10"],
    "run": ["run", *_TRIAL_FLAGS, "--log-trials"],
    "sweep": ["sweep", *_TRIAL_FLAGS[2:], "--n", "2,3"],
    "oracle": ["oracle", "--n", "2", "--gamma", "10", "--ts", "3", "--tmax", "20"],
    "lemma-check": ["lemma-check", "--lemma", "3.4", "--n", "4", "--samples", "300"],
    "stabilize-probe": ["stabilize-probe", *_TRIAL_FLAGS, "--perturbations", "2"],
}


def _verdicts(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.split(" ")[0] in ("equal", "different")]


class TestVerifiedRerun:
    """The manifest records each output's sha256, and ``rerun`` compares."""

    def _first_run(self, tmp_path, command):
        code = main(_RERUN_CALLS[command] + ["--out", str(tmp_path / "o")])
        (manifest,) = tmp_path.glob("*.manifest.json")
        return code, manifest, json.loads(manifest.read_text())

    @pytest.mark.parametrize("command", sorted(_RERUN_CALLS))
    def test_every_command_reruns_all_equal(self, tmp_path, capsys, command):
        code, manifest, data = self._first_run(tmp_path, command)
        assert sorted(data["sha256"]) == sorted(data["outputs"])
        for path, digest in data["sha256"].items():
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == code
        want = [f"equal {path}" for path in sorted(data["outputs"])]
        assert _verdicts(capsys.readouterr().out) == want

    def test_an_edited_digest_is_reported_different(self, tmp_path, capsys):
        _, manifest, data = self._first_run(tmp_path, "run")
        edited = str(tmp_path / "o.csv")
        data["sha256"][edited] = "0" * 64
        manifest.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == 1
        verdicts = _verdicts(capsys.readouterr().out)
        assert f"different {edited}" in verdicts
        assert sum(v.startswith("equal") for v in verdicts) == len(data["outputs"]) - 1

    def test_a_manifest_without_digests_still_reruns(self, tmp_path, capsys):
        _, manifest, data = self._first_run(tmp_path, "run")
        before = {p: Path(p).read_bytes() for p in data["outputs"]}
        del data["sha256"]
        manifest.write_text(json.dumps(data))
        for path in before:
            Path(path).unlink()
        capsys.readouterr()
        assert main(["rerun", str(manifest)]) == 0
        assert _verdicts(capsys.readouterr().out) == []
        assert {p: Path(p).read_bytes() for p in before} == before


class TestInvalidInputsExitThree:
    """Inputs that once escaped as uncaught exceptions (exit 1 and a
    traceback) or ran although out of range: each is a validation error."""

    RUN = ["run", "--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20",
           "--trials", "5", "--seed", "1"]

    def _exit_three(self, argv, capsys):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:")

    @pytest.mark.parametrize("flags", [
        ["--n", "1", "--samples", "1000"],
        ["--lemma", "3.4", "--samples", "0"],
        ["--lemma", "5.12", "--samples", "100", "--ts", "-1"],
        ["--lemma", "3.4", "--samples", "100", "--seed", "-1"],
    ])
    def test_lemma_check_params(self, tmp_path, capsys, flags):
        self._exit_three(["lemma-check", *flags, "--out", str(tmp_path / "lc")], capsys)
        assert not (tmp_path / "lc.csv").exists()

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_seed_out_of_range(self, tmp_path, capsys, seed):
        # as 64-bit hash words these would draw what 2^64 - 1 and 0 draw
        argv = self.RUN[:-1] + [seed, "--out", str(tmp_path / "r")]
        self._exit_three(argv, capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", [None, "not json", "[[1, 1, 1]]", "[[1, 1, 2, 0, 1, 0]]",
                                         "[[1, 1], [1]]", '{"frames": 1}'])
    def test_bad_init_file(self, tmp_path, capsys, content):
        wfile = tmp_path / "win.json"
        if content is not None:
            wfile.write_text(content)
        self._exit_three(self.RUN + ["--init", "file", "--init-file", str(wfile),
                                     "--out", str(tmp_path / "r")], capsys)

    @pytest.mark.parametrize("command", ["run", "sweep", "stabilize-probe"])
    @pytest.mark.parametrize("init", [[], ["--init", "zero"]])
    def test_init_file_without_init_file_policy(self, tmp_path, capsys, command, init):
        # the window would be ignored, yet the manifest would record it
        wfile = tmp_path / "win.json"
        wfile.write_text("[[1, 1, 1, 0, 1, 0]]")
        self._exit_three([command, *self.RUN[1:], *init, "--init-file", str(wfile),
                          "--out", str(tmp_path / "r")], capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["win.json"]

    @pytest.mark.parametrize("flags", [["--ts", "0"], ["--tmax", "-3"]])
    def test_oracle_times(self, tmp_path, capsys, flags):
        argv = ["oracle", "--n", "2", "--gamma", "10", "--ts", "3", "--tmax", "5",
                "--out", str(tmp_path / "cdf")]
        self._exit_three(argv + flags, capsys)

    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "2", "--ts", "3", "--tc", "20"], "need --gamma or --gamma-auto"),
        (["run", "--n", "2", "--ts", "3", "--gamma", "10"], "need --tc or --tc-auto"),
        (["run", "--n", "2", "--ts", "3", "--gamma", "10", "--tc", "20", "--init", "file"],
         "--init file needs --init-file PATH"),
        (["stabilize-probe", "--n", "4,8", "--gamma", "10", "--ts", "3", "--tc", "20"],
         "stabilize-probe takes single values"),
    ], ids=["no-gamma", "no-tc", "init-file-without-path", "probe-list"])
    def test_missing_or_list_arguments(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "m")
        assert main(argv + ["--trials", "5", "--seed", "1", "--out", out]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith("error:") and message in err
        assert list(tmp_path.iterdir()) == []

    def test_negative_perturbations(self, tmp_path, capsys):
        argv = ["stabilize-probe", "--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20",
                "--trials", "5", "--seed", "1", "--perturbations", "-1",
                "--out", str(tmp_path / "p")]
        self._exit_three(argv, capsys)
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--gamma", "10", "--tc", "50", "--delta", "1.5"],
        ["--gamma-auto", "--tc-auto", "--delta", "1"],
        ["--gamma-auto", "--tc-auto", "--delta", "0"],
    ])
    def test_delta_outside_unit_interval(self, tmp_path, capsys, flags):
        argv = ["run", "--n", "2", "--ts", "3", "--trials", "5", "--seed", "1",
                "--out", str(tmp_path / "d")]
        self._exit_three(argv + flags, capsys)
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--gamma-auto", "--tc", "50", "--ts", "0"],
        ["--gamma-auto", "--tc", "50", "--ts", "0", "--delta", "0.1"],
        ["--gamma", "10", "--tc-auto", "--n", "0"],
        ["--gamma", "10", "--tc-auto", "--n", "0", "--delta", "0.1"],
        ["--gamma", "10", "--tc", "50", "--input", "2x"],
    ])
    def test_run_sizes_and_input(self, tmp_path, capsys, flags):
        argv = ["run", "--n", "2", "--ts", "3", "--trials", "5", "--seed", "1",
                "--out", str(tmp_path / "d")]
        self._exit_three(argv + flags, capsys)
        assert not (tmp_path / "d.csv").exists()

    COMMANDS = [
        ["build", "--variant", "two-inhibitor", "--n", "2", "--gamma", "10"],
        RUN,
        ["sweep", "--n", "2,3", "--gamma", "10", "--ts", "3", "--tc", "20",
         "--trials", "5", "--seed", "1"],
        ["oracle", "--n", "2", "--gamma", "10", "--ts", "3", "--tmax", "5"],
        ["lemma-check", "--lemma", "3.4", "--samples", "100"],
        ["stabilize-probe", "--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20",
         "--trials", "5", "--seed", "1", "--perturbations", "1"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_out_in_missing_directory(self, tmp_path, capsys, argv):
        self._exit_three(argv + ["--out", str(tmp_path / "missing" / "x")], capsys)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_out_naming_a_directory(self, tmp_path, capsys, argv):
        target = tmp_path / "results"
        target.mkdir()
        for out in (str(target), str(target) + os.sep, str(tmp_path / "fresh") + os.sep):
            self._exit_three(argv + ["--out", out], capsys)
        # nothing was written inside the directory or beside it
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["results"]

    @staticmethod
    def _refuse_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("build", "run_trials", "sweep", "self_stabilization_probe",
                     "lemma_check", "convergence_cdf"):
            monkeypatch.setattr(cli, name, refuse)

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_out_checked_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        self._refuse_work(monkeypatch)
        blocker = tmp_path / "file"
        blocker.write_text("")
        for out in (tmp_path / "missing" / "x", blocker / "x"):
            self._exit_three(argv + ["--out", str(out)], capsys)

    def test_out_in_unwritable_directory(self, tmp_path, capsys, monkeypatch):
        # a permission bit cannot stop root, so the access check is what is tested
        real_access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            False if Path(path) == tmp_path else real_access(path, mode, **kw)))
        self._refuse_work(monkeypatch)
        self._exit_three(self.RUN + ["--out", str(tmp_path / "r")], capsys)

    def test_oracle_input_bits(self, tmp_path, capsys):
        self._exit_three(["oracle", "--n", "2", "--gamma", "10", "--ts", "3", "--tmax", "5",
                          "--input", "2x", "--out", str(tmp_path / "cdf")], capsys)

    @pytest.mark.parametrize("content", [
        None, "not json", "[1, 2]", '{"parameters": {}}', '{"command": "run"}',
        '{"command": "run", "parameters": []}',
    ])
    def test_bad_manifest(self, tmp_path, capsys, content):
        manifest = tmp_path / "r.manifest.json"
        if content is not None:
            manifest.write_text(content)
        self._exit_three(["rerun", str(manifest)], capsys)


class TestUsageErrorsExitTwo:
    @pytest.mark.parametrize("flag", ["--n", "--ts", "--delta"])
    def test_empty_list(self, tmp_path, capsys, flag):
        argv = ["run", "--n", "2", "--gamma", "10", "--ts", "3", "--tc", "20",
                "--trials", "5", "--seed", "1", "--out", str(tmp_path / "r"), flag, ""]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err


# -- fuzzing main -------------------------------------------------------------

# Value pools per flag: valid values, then invalid ones. Every size (n,
# trials, samples, tmax, perturbations, horizon) stays tiny so one example
# runs well under a second, so a large n is never drawn. ``{dir}`` stands for
# a temporary directory made once per module.
_POOLS = {
    "--variant": (["two-inhibitor", "single-inhibitor", "log-inhibitor"], ["bogus"]),
    "--n": (["1", "2", "3"], ["2,3", "0", "-1", "", "x"]),
    "--gamma": (["10", "14"], ["0", "-1", "inf", "nan", "1e308", "x"]),
    "--ts": (["1", "3"], ["1,2", "0", "-1", ""]),
    "--delta": (["0.1"], ["0.1,0.2", "0", "1", "1.5", "nan", ""]),
    "--tc": (["20", "1"], ["0", "-5"]),
    "--trials": (["1", "5"], ["0", "-1"]),
    "--horizon": (["8", "40"], ["1", "-1"]),
    "--samples": (["1", "50"], ["0", "-1"]),
    "--tmax": (["0", "5"], ["-3"]),
    "--perturbations": (["1", "2"], ["0", "-1"]),
    "--seed": (["0", "1"], ["-1", "x"]),
    "--level": (["1", "2"], ["0", "9"]),
    "--lemma": (["3.4", "3.11", "5.8", "5.12"], ["9.9"]),
    "--init": (["zero", "fire", "random", "file"], ["bogus"]),
    "--init-file": (["{dir}/win.json"], ["{dir}/bad.json", "{dir}/nope.json", "{dir}"]),
    "--input": (["1", "10", "111"], ["2x", ""]),
    "--out": (["{dir}/o"], ["{dir}/missing/o"]),
}
_SWITCHES = ["--gamma-auto", "--tc-auto", "--log-trials", "--bogus"]
_AUTO = ["--gamma-auto", "--tc-auto"] * 2  # twice as likely as any other flag
_COMMON = ["--variant", "--n", "--gamma", "--ts", "--delta", "--tc", "--trials",
           "--horizon", "--seed", "--init", "--init-file", "--input", "--out"]
_TRIALS = ["--n", "--gamma", "--tc", "--trials", "--horizon", "--seed", "--out"]
# per command: the flags drawn at will, and the flags every argv carries
# (the sizes and the required flags)
_COMMANDS = {
    "build": (["--variant", "--n", "--gamma", "--out"], ["--variant", "--n", "--gamma", "--out"]),
    "run": (_COMMON + _AUTO + ["--log-trials"], _TRIALS),
    "sweep": (_COMMON + _AUTO, _TRIALS),
    "oracle": (["--variant", "--n", "--gamma", "--ts", "--tmax", "--init", "--input", "--out"],
               ["--n", "--gamma", "--ts", "--tmax", "--out"]),
    "lemma-check": (["--lemma", "--n", "--gamma", "--samples", "--seed", "--ts", "--level",
                     "--out"], ["--n", "--samples", "--out"]),
    "stabilize-probe": (_COMMON + _AUTO + ["--perturbations"], _TRIALS + ["--perturbations"]),
}
_MANIFESTS = ["{dir}/o.manifest.json", "{dir}/nope.json", "{dir}/bad.json", "{dir}/list.json",
              "{dir}/no_command.json", "{dir}/no_parameters.json"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["rerun", "bogus"]))
    if command == "rerun":
        return ["rerun", draw(st.sampled_from(_MANIFESTS))]
    flags, always = _COMMANDS.get(command, (_COMMON, []))
    argv = [command]
    for flag in always + draw(st.lists(st.sampled_from(flags + ["--bogus"]), max_size=6)):
        if flag in _SWITCHES:
            argv.append(flag)
        else:
            valid, invalid = _POOLS[flag]
            argv += [flag, draw(st.sampled_from(valid * 8 + invalid))]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "win.json").write_text("[[1, 1, 1, 0, 1, 0]]")
    (root / "bad.json").write_text("not json")
    (root / "list.json").write_text("[1, 2]")
    (root / "no_command.json").write_text('{"parameters": {}}')
    (root / "no_parameters.json").write_text('{"command": "run"}')
    return root


_RUN = ["run", "--n", "2", "--gamma", "10", "--tc", "20", "--trials", "5", "--seed", "1"]


@settings(max_examples=60, deadline=None)
@given(argv=_argv())
@example(argv=_RUN + ["--out", "{dir}/missing/o"])
@example(argv=["build", "--variant", "two-inhibitor", "--n", "2", "--gamma", "10",
               "--out", "{dir}/missing/o"])
@example(argv=["rerun", "{dir}/nope.json"])
@example(argv=["rerun", "{dir}/bad.json"])
@example(argv=["rerun", "{dir}/list.json"])
@example(argv=["rerun", "{dir}/no_command.json"])
@example(argv=["rerun", "{dir}/no_parameters.json"])
@example(argv=_RUN + ["--n", "", "--out", "{dir}/o"])
@example(argv=_RUN + ["--ts", "", "--out", "{dir}/o"])
@example(argv=_RUN + ["--delta", "", "--out", "{dir}/o"])
@example(argv=_RUN + ["--input", "2x", "--out", "{dir}/o"])
@example(argv=["lemma-check", "--lemma", "3.4", "--samples", "50", "--seed", "-1",
               "--out", "{dir}/o"])
@example(argv=_RUN + ["--gamma-auto", "--ts", "0", "--out", "{dir}/o"])
@example(argv=_RUN + ["--tc-auto", "--n", "0", "--out", "{dir}/o"])
def test_main_exits_with_a_documented_code(fuzz_dir, argv):
    argv = [a.replace("{dir}", str(fuzz_dir)) for a in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors, --help, --version
            code = e.code
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
