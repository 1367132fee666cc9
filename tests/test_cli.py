import csv
import io
import json

import pytest
from click.testing import CliRunner

from fkmoments.cli import main


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def run_json(*args):
    result = run_cli(*args)
    assert result.exit_code == 0, result.stdout + str(result.stderr)
    return json.loads(result.stdout)


FAST = ("--set", "estimator.replicates=20000")


class TestEstimateCommand:
    def test_zero_kernel_record(self):
        rec = run_json("estimate", "--set", "kernel.spatial=zero", *FAST)
        assert rec["command"] == "estimate"
        assert abs(rec["value"] - 1.0) <= 3 * rec["stderr"]
        assert rec["config.kernel.spatial"] == "zero"

    def test_malformed_hurst_exits_2(self):
        result = run_cli("estimate", "--set", "kernel.hurst=0.4")
        assert result.exit_code == 2
        assert "(1/2, 1)" in result.stderr

    def test_unknown_key_exits_2(self):
        result = run_cli("estimate", "--set", "kernel.nonsense=1")
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("oracle", "oracle.tol=nan"),
            ("oracle", "u0.value=nan"),
            ("estimate", "query.x=nan"),
            ("estimate", "kernel.scale=nan"),
            ("estimate", "kernel.bandwidth=inf"),
        ],
    )
    def test_non_finite_real_exits_2(self, command, setting):
        extra = ("--set", "kernel.spatial=poisson") if "scale" in setting else ()
        result = run_cli(command, *FAST, *extra, "--set", setting)
        assert result.exit_code == 2
        assert setting.split("=")[0] in result.stderr
        assert "finite" in result.stderr

    def test_negative_workers_exits_2(self):
        result = run_cli("estimate", *FAST, "--workers", "-1")
        assert result.exit_code == 2
        assert "workers" in result.stderr

    @pytest.mark.parametrize("key", ["estimator.max_order", "estimator.batches"])
    def test_removed_estimator_keys_exit_2(self, key):
        result = run_cli("estimate", *FAST, "--set", f"{key}=5")
        assert result.exit_code == 2
        assert key in result.stderr

    def test_unwritable_output_path_exits_2(self, tmp_path):
        target = tmp_path / "missing" / "x.json"
        result = run_cli("estimate", *FAST, "--set", f"output.path={target}")
        assert result.exit_code == 2
        assert "output.path" in result.stderr
        assert "Traceback" not in result.output

    def test_byte_identical_repeat(self):
        a = run_cli("estimate", *FAST, "--seed", "7")
        b = run_cli("estimate", *FAST, "--seed", "7")
        assert a.stdout == b.stdout

    def test_byte_identical_across_workers(self):
        a = run_cli("estimate", *FAST, "--seed", "7", "--workers", "1")
        b = run_cli("estimate", *FAST, "--seed", "7", "--workers", "4")
        assert a.stdout == b.stdout

    def test_variance_warning_in_record(self):
        base = ("estimate", *FAST, "--set", "kernel.hurst=0.75")
        uniform = run_json(*base, "--mode", "uniform")
        assert "importance mode" in uniform["variance_warning"]
        assert run_json(*base, "--mode", "importance")["variance_warning"] is None

    def test_white_equation(self):
        rec = run_json("estimate", "--equation", "white", *FAST)
        assert rec["equation"] == "white"
        assert rec["value"] > 1.0

    def test_white_requires_equal_times(self):
        result = run_cli("estimate", "--equation", "white", "--set", "query.s=0.3")
        assert result.exit_code == 2

    def test_flag_overrides_set(self):
        rec = run_json("estimate", *FAST, "--set", "estimator.seed=1", "--seed", "99")
        assert rec["seed"] == 99

    def test_csv_output_parses(self):
        result = run_cli("estimate", *FAST, "--format", "csv")
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert len(rows) == 2
        header, data = rows
        assert len(header) == len(data)
        rec = dict(zip(header, data))
        assert float(rec["value"]) > 0
        assert rec["schema_version"] == "1"

    def test_out_file(self, tmp_path):
        target = tmp_path / "record.json"
        result = run_cli("estimate", *FAST, "--out", str(target))
        assert result.exit_code == 0
        assert result.stdout == ""
        rec = json.loads(target.read_text())
        assert rec["command"] == "estimate"

    def test_diagnostics_stay_off_data_stream(self):
        # uniform mode at H = 0.75 emits a variance warning; the data
        # stream must still parse
        result = run_cli("estimate", *FAST, "--mode", "uniform")
        assert result.exit_code == 0
        json.loads(result.stdout)
        assert "warning" in result.stderr
        assert "wall_time_ms" in result.stderr

    def test_bump_initial_condition(self):
        rec = run_json(
            "estimate", *FAST, "--set", "u0.kind=bump", "--set", "u0.amplitude=2.0",
            "--set", "u0.width=0.5", "--set", "u0.center=0.1",
        )
        assert rec["config.u0.kind"] == "bump"
        assert 0 < rec["value"] < 4.0

    def test_existence_regime_warning(self):
        # Riesz with dim > 2 + order: computed, but flagged on stderr
        result = run_cli(
            "estimate", *FAST, "--set", "kernel.spatial=riesz",
            "--set", "kernel.order=0.5", "--set", "query.dim=3",
            "--set", "query.y=0.4",
        )
        assert result.exit_code == 0
        json.loads(result.stdout)
        assert "existence regime" in result.stderr


class TestOracleCommand:
    def test_zero_kernel(self):
        rec = run_json("oracle", "--set", "kernel.spatial=zero")
        assert rec["total"] == 1.0
        assert rec["tail_estimate"] == 0.0

    def test_white_equation_series(self):
        rec = run_json("oracle", "--equation", "white")
        assert rec["total"] == pytest.approx(1.1801117743084188, abs=1e-7)

    def test_degenerate_time(self):
        rec = run_json("oracle", "--set", "query.t=0", "--set", "query.s=0",
                       "--set", "u0.value=2")
        assert rec["total"] == 4.0

    def test_tail_flagged_heuristic(self):
        rec = run_json("oracle", "--set", "oracle.n_max=2", "--set", "oracle.tol=1e-4")
        assert rec["tail_is_heuristic"] is True
        assert rec["total"] > 1.0

    def test_record_carries_refinement_summary(self):
        args = ("oracle", "--set", "oracle.n_max=2", "--set", "oracle.tol=1e-4")
        first = run_cli(*args)
        assert first.exit_code == 0
        rec = json.loads(first.stdout)
        for n in (1, 2):
            assert isinstance(rec[f"order_{n}_m"], int) and rec[f"order_{n}_m"] > 0
            assert rec[f"order_{n}_rungs"] >= 2
        assert "order_3_m" not in rec
        assert run_cli(*args).stdout == first.stdout

    def test_white_record_carries_refinement_summary(self):
        rec = run_json("oracle", "--equation", "white")
        # the white ladder refines 8, 12, ... Gauss points per axis; m is
        # the simplex rule's node count
        for n in (1, 2, 3):
            assert rec[f"order_{n}_rungs"] == 2
            assert rec[f"order_{n}_m"] == 12**n
        assert list(rec)[3:6] == ["order_1_term", "order_1_m", "order_1_rungs"]

    def test_riesz_capability_error_exits_3(self):
        result = run_cli("oracle", "--set", "kernel.spatial=riesz", "--set", "query.dim=2")
        assert result.exit_code == 3
        assert "Monte Carlo" in result.stderr


class TestCompareCommand:
    def test_pass_verdict(self):
        result = run_cli(
            "compare", "--mode", "importance", "--set", "estimator.replicates=50000",
            "--set", "oracle.n_max=2", "--set", "oracle.tol=1e-4",
        )
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["verdict"] == "pass"
        assert abs(rec["z_score"]) < 10

    def test_infinite_tail_is_inconclusive(self):
        # with one order the tail estimate is infinite, so any estimate
        # would fall inside 3 sigma + tail
        result = run_cli(
            "compare", "--mode", "importance", "--set", "oracle.n_max=1", *FAST,
        )
        assert result.exit_code == 4
        rec = json.loads(result.stdout)
        assert rec["tail_estimate"] == "inf"
        assert rec["verdict"] == "inconclusive"

    def test_zero_stderr_with_nonzero_difference_is_inconclusive(self):
        # at t s = 1e-6 all 2000 replicates have no Poisson points: the
        # estimate is exactly e^{ts} with stderr 0, the oracle differs
        result = run_cli(
            "compare", "--mode", "importance", "--set", "query.t=1",
            "--set", "query.s=1e-6", "--set", "oracle.n_max=2",
            "--set", "estimator.replicates=2000",
        )
        assert result.exit_code == 4
        rec = json.loads(result.stdout)
        assert rec["stderr"] == 0.0
        assert rec["value_mc"] != rec["value_oracle"]
        assert rec["verdict"] == "inconclusive"

    def test_zero_kernel_trivial_pass(self):
        result = run_cli("compare", "--set", "kernel.spatial=zero", *FAST)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["verdict"] == "pass"

    def test_white_equation_compares_against_white_oracle(self):
        result = run_cli(
            "compare", "--equation", "white", "--set", "estimator.replicates=100000",
            "--set", "oracle.tol=1e-5",
        )
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["verdict"] == "pass"
        assert rec["value_oracle"] == pytest.approx(1.18011, abs=1e-4)

    def test_capability_error_exits_3(self):
        result = run_cli("compare", "--set", "kernel.spatial=poisson", *FAST)
        assert result.exit_code == 3

    def test_failed_comparison_exits_4(self, monkeypatch):
        import fkmoments.cli as cli_mod

        def shifted_series(*args, **kwargs):
            from fkmoments import SeriesResult

            return SeriesResult(
                zeroth_term=5.0, order_terms=[0.0], tail_estimate=0.0, total=5.0
            )

        monkeypatch.setattr(cli_mod, "second_moment_series", shifted_series)
        result = run_cli("compare", *FAST)
        assert result.exit_code == 4
        assert json.loads(result.stdout)["verdict"] == "fail"


class TestVerifyCommand:
    def test_estimator_identities_suite(self):
        result = run_cli(
            "verify", "estimator-identities", "--set", "estimator.seed=42"
        )
        assert result.exit_code == 0
        records = json.loads(result.stdout)
        assert all(rec["passed"] for rec in records)
        assert {rec["command"] for rec in records} == {"verify"}

    def test_all_suites_pass(self):
        result = run_cli("verify", "all", "--set", "estimator.seed=42")
        assert result.exit_code == 0
        records = json.loads(result.stdout)
        suites = {rec["suite"] for rec in records}
        assert suites == {
            "poisson-law",
            "conditional-uniformity",
            "integral-identity",
            "lemma2",
            "estimator-identities",
        }
        assert all(rec["passed"] for rec in records)

    def test_unknown_suite_rejected(self):
        result = run_cli("verify", "nope")
        assert result.exit_code == 2  # click usage error


class TestConfigRoundTrip:
    def test_record_echo_replays_byte_identically(self, tmp_path):
        first = run_cli(
            "estimate", *FAST, "--seed", "11", "--set", "kernel.hurst=0.8",
            "--set", "query.x=0.25", "--set", "query.y=-0.5",
        )
        assert first.exit_code == 0
        rec = json.loads(first.stdout)
        cfg_file = tmp_path / "replay.cfg"
        lines = [
            f"{key.removeprefix('config.')} = {value}"
            for key, value in rec.items()
            if key.startswith("config.")
        ]
        cfg_file.write_text("\n".join(lines) + "\n")
        second = run_cli("estimate", "--config", str(cfg_file))
        assert second.exit_code == 0
        assert second.stdout == first.stdout

    def test_config_file_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kernel.hurst 0.75\n")
        result = run_cli("estimate", "--config", str(bad))
        assert result.exit_code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        result = run_cli("estimate", "--config", str(tmp_path / "missing.cfg"))
        assert result.exit_code == 2
        assert "--config" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_comments_and_blanks_allowed(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# temporal kernel\nkernel.hurst = 0.8\n\nestimator.replicates = 5000\n")
        rec = run_json("estimate", "--config", str(cfg))
        assert rec["config.kernel.hurst"] == "0.80000000000000004"


class TestBenchCommand:
    def test_reports_throughput(self):
        result = run_cli("bench", *FAST)
        assert result.exit_code == 0
        rec = json.loads(result.stdout)
        assert rec["replicates_per_second"] > 0
        assert rec["wall_time_ms"] > 0
        assert rec["peak_rss_mb"] > 0
        assert rec["work_norm_var"] > 0
