import json
from pathlib import Path

import pytest

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
        code = main(["oracle", "--n", "25", "--gamma", "10", "--ts", "3",
                     "--tmax", "5", "--out", str(tmp_path / "big")])
        assert code == 4


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
    ])
    def test_lemma_check_params(self, tmp_path, capsys, flags):
        self._exit_three(["lemma-check", *flags, "--out", str(tmp_path / "lc")], capsys)
        assert not (tmp_path / "lc.csv").exists()

    @pytest.mark.parametrize("content", [None, "not json", "[[1, 1, 1]]", "[[1, 1, 2, 0, 1, 0]]",
                                         "[[1, 1], [1]]", '{"frames": 1}'])
    def test_bad_init_file(self, tmp_path, capsys, content):
        wfile = tmp_path / "win.json"
        if content is not None:
            wfile.write_text(content)
        self._exit_three(self.RUN + ["--init", "file", "--init-file", str(wfile),
                                     "--out", str(tmp_path / "r")], capsys)

    @pytest.mark.parametrize("flags", [["--ts", "0"], ["--tmax", "-3"]])
    def test_oracle_times(self, tmp_path, capsys, flags):
        argv = ["oracle", "--n", "2", "--gamma", "10", "--ts", "3", "--tmax", "5",
                "--out", str(tmp_path / "cdf")]
        self._exit_three(argv + flags, capsys)

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
