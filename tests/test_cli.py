"""CLI parsing, execution, artifacts, and determinism."""

import csv
import json
import tracemalloc

import pytest

from noisysearch import cli
from noisysearch.cli import RunManifest, execute, main, parse_args, parse_n_values, parse_noise
from noisysearch.channel import AffineNoise, ConstantNoise
from noisysearch.errors import ContractViolationError


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_happy_path(self, tmp_path):
        out = str(tmp_path / "r.csv")
        m = parse_args(
            ["simulate", "--strategy", "hie", "--L", "15", "--noise", "affine:0.1:0.5",
             "--vl", "0.001", "--trials", "1000", "--seed", "42", "--out", out]
        )
        assert m == RunManifest(
            subcommand="simulate", noise="affine:0.1:0.5", out=out, strategy="hie",
            L=15, vl=0.001, trials=1000, seed=42, workers=1, format="csv",
        )

    def test_range_expansion(self):
        assert parse_n_values("10:60:5") == list(range(10, 61, 5))
        assert parse_n_values("10,20,30") == [10, 20, 30]
        assert parse_n_values("25") == [25]

    @pytest.mark.parametrize(
        "spec", ["1:2:3:4", "5:", "3,,4", "1.5", "", "5:1:1", "0:5:1", "1:5:0", "1:1000001:1"]
    )
    def test_malformed_n_spec_names_the_spec(self, spec):
        with pytest.raises(ValueError) as exc:
            parse_n_values(spec)
        msg = str(exc.value)
        assert "\n" not in msg and repr(spec) in msg and "LO:HI:STEP" in msg

    def test_noise_grammar(self):
        assert parse_noise("affine:0.1:0.5") == AffineNoise(0.1, 0.5)
        assert parse_noise("constant:0.3") == ConstantNoise(0.3)
        with pytest.raises(ValueError):
            parse_noise("affine:0.1")
        with pytest.raises(ValueError):
            parse_noise("poisson:2.0")
        with pytest.raises(ValueError, match="bad noise spec 'affine:x:0.5'"):
            parse_noise("affine:x:0.5")

    def test_unsupported_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--strategy", "maxejs", "--L", "10",
                        "--noise", "affine:0.1:0.5", "--vl", "0.01", "--out", "x.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "median" in err and "sort" in err and "dya" in err and "hie" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--strategy", "sort", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv"],  # missing --L
            ["simulate", "--strategy", "sort", "--L", "54", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv"],  # L out of range
            ["simulate", "--strategy", "sort", "--L", "10", "--noise", "affine:0.1:0.5",
             "--out", "x.csv"],  # no stopping rule
            ["simulate", "--strategy", "sort", "--L", "10", "--noise", "affine:0.1:0.5",
             "--fl", "10", "--vl", "0.01", "--out", "x.csv"],  # both stopping rules
            ["simulate", "--strategy", "sort", "--L", "10", "--noise", "affine:0.1:0.5",
             "--vl", "1.5", "--out", "x.csv"],  # epsilon out of range
            ["simulate", "--strategy", "sort", "--L", "10", "--noise", "nope",
             "--vl", "0.01", "--out", "x.csv"],  # bad noise spec
            ["sweep", "--strategy", "sort", "--L", "10", "--noise", "affine:0.1:0.5",
             "--out", "x.csv"],  # missing --n
            ["simulate", "--strategy", "sort", "--L", "10", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv", "--bogus"],  # unknown flag
            ["simulate", "--strategy", "dya", "--L", "10", "--noise", "affine:0.1:0.5",
             "--fl", "2000000", "--out", "x.csv"],  # budget over the step cap
            ["sweep", "--strategy", "dya", "--L", "10", "--noise", "affine:0.1:0.5",
             "--n", "0,5", "--out", "x.csv"],  # non-positive budget
            ["simulate", "--config", '{"L": "12"}', "--strategy", "dya",
             "--noise", "affine:0.1:0.5", "--vl", "0.01", "--out", "x.csv"],  # config type
            ["simulate", "--strategy", "sort", "--L", "6", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv",
             "--dump-partition", "p.csv"],  # dense posterior has no partition
            ["simulate", "--strategy", "median", "--L", "8", "--noise", "constant:0.5",
             "--vl", "0.01", "--out", "x.csv"],  # uninformative: p(1/2) = 1/2
            ["simulate", "--strategy", "median", "--L", "8", "--noise", "affine:0.1:inf",
             "--vl", "0.01", "--out", "x.csv"],  # slope inf: p(0) = inf * 0 is nan
            ["simulate", "--strategy", "median", "--L", "8", "--noise", "affine:0.1:nan",
             "--vl", "0.01", "--out", "x.csv"],  # slope nan
            ["simulate", "--strategy", "dya", "--L", "4", "--noise", "affine:0.1:0.5",
             "--vl", "1e-17", "--trials", "1", "--out", "x.csv"],  # 1 - eps rounds to 1
            ["NS_WORKERS=abc", "simulate", "--strategy", "dya", "--L", "4",
             "--noise", "affine:0.1:0.5", "--vl", "0.01", "--out", "x.csv"],  # not an int
            ["NS_WORKERS=0", "simulate", "--strategy", "dya", "--L", "4",
             "--noise", "affine:0.1:0.5", "--vl", "0.01", "--out", "x.csv"],  # no worker
            ["bounds", "--L", "30", "--noise", "affine:0.1:0.5", "--vl", "5e-324",
             "--out", "x.csv"],  # 2**-L * eps underflows to 0
            ["bounds", "--L", "12", "--noise", "affine:0.1:0.5", "--vl", "1e-310",
             "--out", "x.csv"],  # 1 / (2**-L * eps) overflows to inf
            ["simulate", "--strategy", "dya", "--L", "6", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv", "--dump-partition", "./x.csv"],  # one file
            ["simulate", "--strategy", "hie", "--L", "8", "--noise", "constant:0.499",
             "--vl", "0.1", "--trials", "1", "--out", "x.csv"],  # converse 2.3e6 steps
            ["simulate", "--strategy", "hie", "--L", "8", "--noise", "affine:0.4999:0.0001",
             "--vl", "0.1", "--trials", "1", "--out", "x.csv"],  # converse 2.3e8 steps
            ["simulate", "--strategy", "dya", "--L", "1", "--noise", "constant:0.4995",
             "--vl", "0.1", "--trials", "4", "--out", "x.csv"],  # converse 5.97e5 steps
            *(["sweep", "--strategy", "dya", "--L", "6", "--noise", "affine:0.1:0.5",
               "--n", spec, "--out", "x.csv"]  # malformed budget specs
              for spec in ("1:2:3:4", "5:", "3,,4", "1.5")),
            ["simulate", "--strategy", "dya", "--L", "8", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--trials", "99999999999999999999",
             "--out", "x.csv"],  # trial indices are int64
            ["simulate", "--config", "[1, 2]", "--strategy", "dya", "--L", "4",
             "--noise", "affine:0.1:0.5", "--vl", "0.01",
             "--out", "x.csv"],  # config file not a JSON object
        ],
    )
    def test_usage_errors_exit_nonzero(self, argv, tmp_path, monkeypatch):
        while "=" in argv[0]:  # a leading NAME=VALUE sets an environment variable
            name, value = argv[0].split("=", 1)
            monkeypatch.setenv(name, value)
            argv = argv[1:]
        if "--config" in argv:  # the value after --config is the file's JSON text
            i = argv.index("--config") + 1
            cfg = tmp_path / "cfg.json"
            cfg.write_text(argv[i])
            argv = argv[:i] + [str(cfg)] + argv[i + 1 :]
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--strategy", "dya", "--L", "10", "--noise", "affine:0.1:0.5",
             "--fl", "2000000", "--out", "x.csv"],  # checked after parsing
            ["simulate", "--strategy", "maxejs", "--L", "10", "--noise", "affine:0.1:0.5",
             "--vl", "0.01", "--out", "x.csv"],  # rejected by the subcommand's parser
            ["simulate", "--strategy", "dya", "--L", "4", "--noise", "affine:0.1:0.5",
             "--vl", "1e-17", "--trials", "1", "--out", "x.csv"],  # checked by VariableLength
        ],
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("noisysearch") and ": error: " in err

    @pytest.mark.parametrize(
        "argv, config, option",
        [
            (["sweep"], None, "--n"),  # sweep requires --n
            (["sweep"], {"n_spec": 5}, "--n"),  # budgets are a string
            (["simulate", "--vl", "0.01"], {"dump_partition": 5}, "--dump-partition"),
        ],
    )
    def test_usage_error_names_the_option(self, argv, config, option, tmp_path, capsys):
        argv = argv + ["--strategy", "dya", "--L", "8", "--noise", "affine:0.1:0.5",
                       "--out", "x.csv"]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f" {option}\n")

    def test_config_file_merge_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"strategy": "dya", "L": 9, "trials": 77, "seed": 5}))
        out = str(tmp_path / "out.csv")
        m = parse_args(
            ["simulate", "--config", str(cfg), "--strategy", "sort",
             "--noise", "affine:0.1:0.5", "--vl", "0.01", "--out", out]
        )
        assert m.strategy == "sort"  # flag beats config
        assert m.L == 9 and m.trials == 77 and m.seed == 5  # config fills the rest

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"turbo": True}))
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--config", str(cfg), "--strategy", "sort",
                        "--L", "8", "--noise", "affine:0.1:0.5", "--vl", "0.01",
                        "--out", "x.csv"])
        assert exc.value.code == 2

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe")
        with pytest.raises(SystemExit) as exc:
            parse_args(["simulate", "--config", str(cfg), "--strategy", "sort",
                        "--L", "8", "--noise", "affine:0.1:0.5", "--vl", "0.01",
                        "--out", "x.csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read config file" in err

    def test_manifest_json_round_trip(self, tmp_path):
        m = parse_args(["sweep", "--strategy", "sort", "--L", "12",
                        "--noise", "affine:0.1:0.5", "--n", "10:60:5",
                        "--trials", "500", "--seed", "9",
                        "--out", str(tmp_path / "s.csv")])
        assert RunManifest.from_json(m.to_json()) == m

    def test_workers_env_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NS_WORKERS", "3")
        m = parse_args(["simulate", "--strategy", "sort", "--L", "8",
                        "--noise", "affine:0.1:0.5", "--vl", "0.01",
                        "--out", str(tmp_path / "x.csv")])
        assert m.workers == 3


class TestExecution:
    def test_simulate_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "--strategy", "dya", "--L", "6",
                     "--noise", "affine:0.1:0.5", "--vl", "0.01",
                     "--trials", "50", "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["strategy"] == "dya"
        assert rows[0]["stopping"] == "vl"
        assert float(rows[0]["error_rate"]) <= 0.1
        assert "error_rate=" in capsys.readouterr().out

    def test_noiseless_median_mean_tau(self, tmp_path, capsys):
        out = tmp_path / "noiseless.csv"
        code = main(["simulate", "--strategy", "median", "--L", "10",
                     "--noise", "constant:0", "--vl", "0.01",
                     "--trials", "40", "--seed", "1", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert float(row["mean_tau"]) == 10.0
        assert "mean_tau=10" in capsys.readouterr().out

    def test_noise_near_half_below_the_step_cap_runs(self, tmp_path):
        # the converse bound is about 930 queries here; the trial takes 306
        out = tmp_path / "near-half.csv"
        code = main(["simulate", "--strategy", "hie", "--L", "8",
                     "--noise", "constant:0.45", "--vl", "0.1",
                     "--trials", "1", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert float(read_csv(out)[0]["mean_tau"]) > 100

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--strategy", "hie", "--L", "6",
                     "--noise", "affine:0.1:0.5", "--n", "5:20:5",
                     "--trials", "60", "--seed", "2", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [int(r["param"]) for r in rows] == [5, 10, 15, 20]
        assert all(r["stopping"] == "fl" for r in rows)

    @pytest.mark.parametrize(
        "argv, params",
        [
            (["simulate", "--strategy", "hie", "--vl", "0.001", "--trials", "4"], ["0.001"]),
            # 64 trials: the batch path
            (["sweep", "--strategy", "sort", "--n", "20:60:20", "--trials", "64"],
             ["20", "40", "60"]),
        ],
        ids=("simulate", "sweep"),
    )
    def test_largest_resolution(self, argv, params, tmp_path):
        # 2**53 bins, the most whose counts float64 holds exactly
        out = tmp_path / "l53.csv"
        assert main(argv + ["--L", "53", "--noise", "affine:0.1:0.5", "--seed", "5",
                            "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["param"] for r in rows] == params
        assert all(r["L"] == "53" and float(r["mean_tau"]) >= 20 for r in rows)

    def test_bounds_all_strategies(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = main(["bounds", "--L", "15", "--noise", "affine:0.1:0.5",
                     "--vl", "0.001", "--alpha", "0.015625", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["strategy"] for r in rows] == ["sort", "dya", "hie"]
        for row in rows:
            assert float(row["tau_upper"]) > 0
            assert float(row["delta"]) == 2.0**-15

    def test_bounds_single_strategy(self, tmp_path):
        out = tmp_path / "bounds1.csv"
        assert main(["bounds", "--strategy", "hie", "--L", "12",
                     "--noise", "affine:0.1:0.5", "--vl", "0.001",
                     "--out", str(out)]) == 0
        assert [r["strategy"] for r in read_csv(out)] == ["hie"]

    def test_bounds_manifest_without_alpha_uses_the_default(self, tmp_path):
        by_argv, by_manifest = tmp_path / "argv.csv", tmp_path / "manifest.csv"
        assert main(["bounds", "--L", "12", "--noise", "affine:0.1:0.5",
                     "--vl", "0.001", "--out", str(by_argv)]) == 0
        manifest = RunManifest(subcommand="bounds", noise="affine:0.1:0.5",
                               out=str(by_manifest), L=12, vl=1e-3)
        assert execute(manifest) == 0
        assert read_bytes(by_manifest) == read_bytes(by_argv)

    def test_bounds_take_epsilon_below_the_stopping_floor(self, tmp_path):
        # a closed form: unlike simulate, it needs no peak to pass 1 - eps
        out = tmp_path / "bounds_tiny.csv"
        assert main(["bounds", "--strategy", "hie", "--L", "4", "--noise", "affine:0.1:0.5",
                     "--vl", "1e-17", "--out", str(out)]) == 0
        assert float(read_csv(out)[0]["epsilon"]) == 1e-17

    def test_frontier_intercept(self, tmp_path):
        out = tmp_path / "frontier.csv"
        assert main(["frontier", "--noise", "affine:0.1:0.5", "--out", str(out)]) == 0
        rows = read_csv(out)
        optimal = [r for r in rows if r["class"] == "optimal"]
        assert len(optimal) == 101
        r_intercept = max(float(r["R"]) for r in optimal)
        assert abs(r_intercept - 0.531) <= 1e-3
        e_intercept = max(float(r["E"]) for r in optimal)
        assert abs(e_intercept - 2.536) <= 1e-3

    def test_json_format(self, tmp_path):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--strategy", "sort", "--L", "5",
                     "--noise", "affine:0.1:0.5", "--fl", "10",
                     "--trials", "30", "--seed", "4", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert isinstance(payload, list) and payload[0]["strategy"] == "sort"
        assert payload[0]["param"] == 10

    def test_sort_memory_does_not_grow_with_bins(self, tmp_path):
        # 2**24 bins: the dense vector alone would take 128 MiB
        tracemalloc.start()
        try:
            code = main(["simulate", "--strategy", "sort", "--L", "24",
                         "--noise", "affine:0.1:0.5", "--fl", "10", "--trials", "2",
                         "--seed", "1", "--workers", "1", "--out", str(tmp_path / "s.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * 2**20

    def test_dump_partition(self, tmp_path):
        out = tmp_path / "sim.csv"
        dump = tmp_path / "partition.csv"
        assert main(["simulate", "--strategy", "dya", "--L", "6",
                     "--noise", "affine:0.1:0.5", "--vl", "0.01",
                     "--trials", "5", "--seed", "3", "--out", str(out),
                     "--dump-partition", str(dump)]) == 0
        rows = read_csv(dump)
        assert rows[0].keys() == {"lo", "hi", "mass"}
        assert int(rows[0]["lo"]) == 1
        assert sum(float(r["mass"]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_dump_partition_rejected_for_dense_strategy(self, tmp_path, capsys):
        # a manifest built without parse_args meets the same check in execute
        manifest = RunManifest(
            subcommand="simulate", noise="affine:0.1:0.5", out=str(tmp_path / "s.csv"),
            strategy="sort", L=6, vl=0.01, trials=5, seed=3,
            dump_partition=str(tmp_path / "p.csv"),
        )
        assert execute(manifest) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err
        assert not (tmp_path / "p.csv").exists()

    def test_dump_partition_to_the_output_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        out.write_bytes(b"earlier,results\n")
        manifest = RunManifest(
            subcommand="simulate", noise="affine:0.1:0.5", out=str(out),
            strategy="dya", L=6, vl=0.01, trials=5, seed=3,
            dump_partition=f"{tmp_path}/./s.csv",  # another spelling of the same path
        )
        assert execute(manifest) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err
        assert out.read_bytes() == b"earlier,results\n"

    @pytest.mark.parametrize(
        "via_json, fields",
        [
            pytest.param(False, {"noise": "constant:0.5"}, id="uninformative-noise"),
            pytest.param(False, {"vl": 1e-17}, id="vl-rounds-to-one"),
            pytest.param(False, {"trials": 0}, id="no-trials"),
            pytest.param(False, {"workers": 0}, id="no-workers"),
            pytest.param(False, {"seed": None}, id="no-seed"),
            pytest.param(False, {"subcommand": "sweep", "vl": None, "n_spec": "0,5"},
                         id="sweep-zero-budget"),
            pytest.param(False, {"subcommand": "bounds", "strategy": "median",
                                 "alpha": 0.015625}, id="bounds-median"),
            pytest.param(False, {"subcommand": "nope"}, id="unknown-subcommand"),
            pytest.param(False, {"format": "xml"}, id="unknown-format"),
            pytest.param(True, {"L": "12"}, id="from-json-string-L"),
            pytest.param(False, {"subcommand": "bounds", "L": 30, "vl": 5e-324,
                                 "alpha": 0.015625}, id="bounds-vl-underflow"),
            pytest.param(False, {"noise": "constant:0.499", "L": 8, "vl": 0.1},
                         id="converse-over-step-cap"),
            pytest.param(False, {"subcommand": "frontier", "strategy": None, "L": None,
                                 "vl": None, "trials": 5}, id="frontier-takes-no-trials"),
            pytest.param(False, {"subcommand": "frontier", "strategy": None, "L": None,
                                 "vl": None, "noise": "constant:0.5"},
                         id="frontier-uninformative-noise"),
            pytest.param(False, {"subcommand": "sweep", "vl": None, "n_spec": "5,10",
                                 "workers": 0}, id="sweep-no-workers"),
            *(pytest.param(False, {"subcommand": "sweep", "vl": None, "n_spec": spec},
                           id=f"sweep-n-{spec}")
              for spec in ("1:2:3:4", "5:", "3,,4", "1.5")),
        ],
    )
    def test_bad_manifest_is_a_usage_error(self, via_json, fields, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("a bad manifest must not start a run")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        monkeypatch.setattr(cli, "sweep_error_vs_queries", no_run)
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier,results\n")
        spec = {"subcommand": "simulate", "noise": "affine:0.1:0.5", "out": str(out),
                "strategy": "dya", "L": 4, "vl": 0.01, **fields}
        manifest = RunManifest.from_json(json.dumps(spec)) if via_json else RunManifest(**spec)
        assert execute(manifest) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ": error: " in err
        assert out.read_bytes() == b"earlier,results\n"

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["simulate", "--strategy", "dya", "--L", "5",
                     "--noise", "affine:0.1:0.5", "--vl", "0.01",
                     "--trials", "5", "--seed", "3",
                     "--out", str(tmp_path / "missing" / "out.csv")])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err

    def test_internal_error_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ContractViolationError("posterior has 9 intervals after 2 queries")

        monkeypatch.setattr(cli, "run_monte_carlo", broken)
        code = main(["simulate", "--strategy", "dya", "--L", "5",
                     "--noise", "affine:0.1:0.5", "--vl", "0.01", "--trials", "5",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "internal error" in err

    @pytest.mark.parametrize("flag", ["--out", "--dump-partition"])
    def test_unwritable_output_fails_before_the_run(self, flag, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("run_monte_carlo must not start")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        paths = {"--out": str(tmp_path / "s.csv"), "--dump-partition": str(tmp_path / "p.csv")}
        paths[flag] = str(tmp_path / "missing" / "x.csv")
        code = main(["simulate", "--strategy", "dya", "--L", "5",
                     "--noise", "affine:0.1:0.5", "--vl", "0.01", "--trials", "5",
                     "--out", paths["--out"], "--dump-partition", paths["--dump-partition"]])
        assert code == 2
        assert "i/o error" in capsys.readouterr().err


class TestOutputDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--strategy", "hie", "--L", "7",
                "--noise", "affine:0.1:0.5", "--vl", "0.01",
                "--trials", "100", "--seed", "11"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_worker_count_does_not_change_output(self, tmp_path):
        base = ["sweep", "--strategy", "dya", "--L", "7",
                "--noise", "affine:0.1:0.5", "--n", "5:15:5",
                "--trials", "80", "--seed", "21"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        assert read_bytes(a) == read_bytes(b)
