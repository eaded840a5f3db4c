"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENT_MODULES, build_parser, main


class TestParser:
    def test_datasets_command(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"

    def test_decompose_defaults(self):
        args = build_parser().parse_args(["decompose", "activity"])
        assert args.method == "dpar2"
        assert args.rank == 10
        assert args.max_iterations == 32

    def test_decompose_options(self):
        args = build_parser().parse_args(
            ["decompose", "traffic", "--method", "spartan", "--rank", "5",
             "--max-iterations", "3", "--threads", "2", "--seed", "9"]
        )
        assert args.method == "spartan"
        assert args.rank == 5
        assert args.seed == 9
        assert args.backend == "thread"
        assert args.out_of_core is False

    def test_decompose_backend_options(self):
        args = build_parser().parse_args(
            ["decompose", "traffic", "--backend", "serial", "--out-of-core"]
        )
        assert args.backend == "serial"
        assert args.out_of_core is True

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "traffic", "--backend", "quantum"]
            )

    def test_compute_backend_default_and_choices(self):
        args = build_parser().parse_args(["decompose", "traffic"])
        assert args.compute_backend == "numpy"
        args = build_parser().parse_args(
            ["decompose", "traffic", "--compute-backend", "torch"]
        )
        assert args.compute_backend == "torch"

    def test_unknown_compute_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "traffic", "--compute-backend", "tensorflow"]
            )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "nonexistent"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["decompose", "activity", "--method", "magic"]
            )

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig10"])
        assert args.which == "fig10"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--registry", "/tmp/r"])
        assert args.port == 8080
        assert args.batch_window_ms == 2.0
        assert args.poll_interval == 2.0
        assert args.lru_size == 4

    def test_serve_requires_registry(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_publish_options(self):
        args = build_parser().parse_args(
            ["publish", "traffic", "--registry", "/tmp/r", "--rank", "6",
             "--dtype", "float32"]
        )
        assert args.dataset == "traffic"
        assert args.rank == 6
        assert args.dtype == "float32"

    def test_query_options(self):
        args = build_parser().parse_args(
            ["query", "similar", "--index", "3", "-k", "7",
             "--mode", "feature", "--model-version", "2"]
        )
        assert args.what == "similar"
        assert (args.index, args.k, args.mode, args.model_version) == \
            (3, 7, "feature", 2)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "teleport"])

    def test_help_epilogue_mentions_serving(self, capsys):
        """The --help epilogue advertises the serving quickstart (and the
        console-script spelling, auditing the pyproject entry point)."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        out = capsys.readouterr().out
        assert "repro serve" in out
        assert "repro query" in out
        assert "repro publish" in out


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("fma", "urban", "us_stock", "kr_stock", "activity",
                     "action", "traffic", "pems_sf"):
            assert name in out

    def test_decompose_runs(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "4", "--max-iterations", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fitness" in out
        assert "DPar2" in out

    def test_decompose_other_method(self, capsys):
        code = main(
            ["decompose", "traffic", "--method", "parafac2_als",
             "--rank", "3", "--max-iterations", "2"]
        )
        assert code == 0
        assert "PARAFAC2-ALS" in capsys.readouterr().out

    def test_decompose_serial_backend_runs(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--backend", "serial"]
        )
        assert code == 0
        assert "backend serial" in capsys.readouterr().out

    def test_decompose_out_of_core_runs(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--out-of-core"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "staging" in out
        assert "fitness" in out

    def test_decompose_reports_compute_backend(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--compute-backend", "numpy"]
        )
        assert code == 0
        assert "compute numpy" in capsys.readouterr().out

    def test_out_of_core_with_device_backend_fails_fast(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--out-of-core", "--compute-backend", "torch"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "out-of-core" in err and "mutually exclusive" in err

    def test_non_dpar2_method_with_device_backend_fails_fast(self, capsys):
        code = main(
            ["decompose", "traffic", "--rank", "3", "--max-iterations", "2",
             "--method", "rd_als", "--compute-backend", "torch"]
        )
        assert code == 2
        assert "only" in capsys.readouterr().err

    def test_bench_info(self, capsys):
        assert main(["bench-info"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENT_MODULES:
            assert exp_id in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        assert "Datasets" in capsys.readouterr().out


class TestServeCommands:
    def test_publish_then_query_roundtrip(self, capsys, tmp_path):
        registry = str(tmp_path / "registry")
        code = main(["publish", "traffic", "--registry", registry,
                     "--rank", "3", "--max-iterations", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "published version 1" in out

        from repro.serve.service import start_server_in_thread

        with start_server_in_thread(registry) as handle:
            code = main(["query", "similar", "--url", handle.base_url,
                         "--index", "0", "-k", "2"])
            assert code == 0
            assert '"neighbors"' in capsys.readouterr().out
            code = main(["query", "health", "--url", handle.base_url])
            assert code == 0
            assert '"version": 1' in capsys.readouterr().out

    def test_query_unreachable_server(self, capsys):
        code = main(["query", "health", "--url", "http://127.0.0.1:1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_query_missing_arguments(self, capsys):
        assert main(["query", "similar"]) == 2
        assert "needs --index" in capsys.readouterr().err
        assert main(["query", "reconstruct"]) == 2
        assert "needs --slice" in capsys.readouterr().err
        assert main(["query", "fold-in"]) == 2
        assert "needs --npy" in capsys.readouterr().err

    def test_serve_empty_registry_fails_fast(self, capsys, tmp_path):
        code = main(["serve", "--registry", str(tmp_path / "empty")])
        assert code == 2
        assert "no published versions" in capsys.readouterr().err


class TestExperimentIndexComplete:
    def test_every_paper_artifact_has_a_command(self):
        """The CLI index must cover every table and figure of the paper."""
        for exp_id in ("fig1", "fig8", "fig9a", "fig9b", "fig10", "fig11",
                       "fig12", "table2", "table3"):
            assert exp_id in EXPERIMENT_MODULES
