import csv

import numpy as np
import pytest

from repgraph.cli import main


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["flops", "--frobnicate"]) == 2

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["mine-bitcoin"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "bench" in capsys.readouterr().out


class TestFlopsCommand:
    def test_reference_geometry_prints_expected_total(self, capsys):
        code = main(["flops", "--block", "nl", "--h", "256", "--w", "128",
                     "--c", "2048", "--cp", "256"])
        assert code == 0
        out = capsys.readouterr().out
        gflops = float(out.splitlines()[0].split()[1])
        assert abs(gflops - 601.4) / 601.4 < 0.10

    def test_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "flops.csv"
        assert main(["flops", "--block", "brg", "--h", "8", "--w", "8",
                     "--c", "16", "--cp", "4", "--out", str(path)]) == 0
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["block", "suboperation", "macs"]

    def test_config_file_overrides_geometry(self, tmp_path, capsys):
        cfg = tmp_path / "layer.cfg"
        cfg.write_text("c=32\ncp=8\ns=4\nvariant=bottleneck\n")
        assert main(["flops", "--block", "brg", "--h", "8", "--w", "8",
                     "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "offset_conv" in out


class TestOracleCommand:
    def test_passes_and_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "oracle.csv"
        assert main(["oracle", "--n", "36", "--seed", "3", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "max abs diff" in out
        assert "pass" in out
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["n", "seed", "max_abs_diff", "tolerance", "passed"]
        assert rows[1][4] == "1"

    def test_bad_node_count_is_validation_failure(self, capsys):
        assert main(["oracle", "--n", "35"]) == 1
        assert "error" in capsys.readouterr().err


class TestAffinityCommand:
    def test_uniform_demo(self, tmp_path, capsys):
        base = tmp_path / "aff"
        assert main(["affinity", "--demo", "uniform", "--n", "16",
                     "--out", str(base)]) == 0
        out = capsys.readouterr().out
        assert "mean imbalance 0.0000" in out
        assert (tmp_path / "aff_hist.csv").exists()
        assert (tmp_path / "aff_topk.csv").exists()

    def test_onehot_demo(self, tmp_path, capsys):
        assert main(["affinity", "--demo", "onehot", "--n", "8",
                     "--out", str(tmp_path / "a")]) == 0
        assert "mean imbalance 1.0000" in capsys.readouterr().out

    def test_random_affinity(self, tmp_path, capsys):
        assert main(["affinity", "--n", "25", "--cp", "4", "--seed", "1",
                     "--out", str(tmp_path / "r")]) == 0
        assert "random dense affinity" in capsys.readouterr().out

    def test_checkpoint_gives_one_row_per_query_and_group(self, tmp_path, capsys):
        from repgraph.train import TrainConfig, init_toy_model, save_checkpoint

        cfg = TrainConfig(width=8, cp=4, s=2)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        assert main(["affinity", "--ckpt", str(tmp_path / "ck"),
                     "--out", str(tmp_path / "a")]) == 0
        # A batch of four 32x32 images through the layer's single group.
        assert "4096 rows of 2" in capsys.readouterr().out


class TestTrainCommand:
    def test_smoke_run_writes_log_and_checkpoint(self, tmp_path, capsys):
        log = tmp_path / "train.csv"
        ckpt = tmp_path / "ckpt"
        code = main(["train", "--iters", "3", "--seed", "1",
                     "--out", str(log), "--ckpt-dir", str(ckpt)])
        assert code == 0
        assert "held-out pixel accuracy" in capsys.readouterr().out
        rows = list(csv.reader(log.open()))
        assert rows[0] == ["iter", "lr", "loss", "pix_acc"]
        assert len(rows) == 4
        assert (ckpt / "manifest.txt").exists()

    def test_unwritable_log_fails_before_any_training(self, tmp_path, monkeypatch, capsys):
        from repgraph import train

        def forward(*args, **kwargs):
            raise AssertionError("the model ran before the log was opened")

        monkeypatch.setattr(train, "toy_model_logits", forward)
        assert main(["train", "--iters", "20",
                     "--out", str(tmp_path / "missing" / "log.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_dense_block_trains_in_the_toy_slot(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        assert main(["train", "--iters", "3", "--seed", "1", "--variant", "nonlocal",
                     "--ckpt-dir", str(ckpt)]) == 0
        assert main(["affinity", "--ckpt", str(ckpt), "--out", str(tmp_path / "a")]) == 0
        # A batch of four 32x32 images, each query over all 1024 positions.
        assert "4096 rows of 1024" in capsys.readouterr().out


class TestBenchCommand:
    def test_tiny_bench_writes_csv(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code = main(["bench", "--block", "srg,brg", "--h", "8", "--w", "8",
                     "--c", "8", "--cp", "4", "--nodes", "2", "--out", str(path)])
        assert code == 0
        rows = list(csv.reader(path.open()))
        assert rows[0][:3] == ["block", "h", "w"]
        assert {r[0] for r in rows[1:]} == {"srg", "brg"}
        assert all(", peak " in line and " MiB at 8x8" in line
                   for line in capsys.readouterr().out.splitlines())

    def test_concat_fusion_builds_concat_width_params(self, monkeypatch, capsys):
        from repgraph import bench

        built = []

        def spy(*args, real=bench.init_layer_params, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(bench, "init_layer_params", spy)
        assert main(["bench", "--block", "nl,srg,brg", "--h", "4", "--w", "4",
                     "--c", "8", "--cp", "4", "--nodes", "2", "--fusion", "concat"]) == 0
        nl, srg, brg = built
        assert nl.w_out.c_in == 8 + 4
        assert srg.w_out.c_in == 8 + 4
        assert brg.expand.c_in == 2 * 4

    def test_flags_and_config_file_give_every_block_the_same_layer(self, tmp_path,
                                                                   monkeypatch, capsys):
        from repgraph import bench

        cfgs = []

        def spy(cfg, *args, real=bench.init_layer_params, **kwargs):
            cfgs.append(cfg)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "init_layer_params", spy)
        blocks = ["--block", "srg,brg,grid,group", "--h", "4", "--w", "4"]
        path = tmp_path / "layer.cfg"
        path.write_text("c=8\ncp=4\ns=2\nfusion=concat\nseed=3\ngs=2\ngroups=2\n")
        assert main(["bench", *blocks, "--c", "8", "--cp", "4", "--nodes", "2",
                     "--fusion", "concat", "--seed", "3", "--gs", "2", "--groups", "2"]) == 0
        assert main(["bench", *blocks, "--config", str(path)]) == 0
        assert len(cfgs) == 8
        assert cfgs[:4] == cfgs[4:]
        assert [(c.variant, c.gs, c.groups) for c in cfgs[:4]] == [
            ("simple", 1, 1), ("bottleneck", 1, 1), ("bottleneck", 2, 1), ("bottleneck", 1, 2)]

    def test_config_file_sets_every_layer_field_but_variant(self, tmp_path, monkeypatch,
                                                            capsys):
        from repgraph import bench

        cfgs = []

        def spy(cfg, *args, real=bench.init_layer_params, **kwargs):
            cfgs.append(cfg)
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(bench, "init_layer_params", spy)
        path = tmp_path / "layer.cfg"
        path.write_text("c=8\ncp=4\ns=2\nvariant=bottleneck\ninit_mode=pretrained_insert\n"
                        "offset_source=theta\nseed=5\n")
        assert main(["bench", "--block", "srg,brg", "--h", "4", "--w", "4",
                     "--config", str(path)]) == 0
        srg, brg = cfgs
        assert (srg.variant, brg.variant) == ("simple", "bottleneck")
        for cfg in cfgs:
            assert (cfg.init_mode, cfg.offset_source, cfg.seed) == ("pretrained_insert",
                                                                    "theta", 5)


class TestFailures:
    def _one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        return err

    @pytest.mark.parametrize("argv", [
        ["flops", "--out", "{missing}"],
        ["bench", "--block", "srg", "--h", "4", "--w", "4", "--c", "8", "--cp", "4",
         "--nodes", "2", "--out", "{missing}"],
        ["oracle", "--n", "4", "--out", "{missing}"],
        ["affinity", "--demo", "uniform", "--n", "4", "--out", "{missing}"],
        ["train", "--iters", "1", "--out", "{missing}"],
        ["oracle", "--n", "0"],
        ["affinity", "--n", "0", "--out", "{tmp}/a"],
        ["affinity", "--n", "4", "--cp", "-1", "--out", "{tmp}/a"],
        ["bench", "--block", "nl", "--h", "-1", "--c", "8", "--cp", "4"],
        # Layer flags are validated as a config file would be.
        ["flops", "--block", "srg", "--cp", "6", "--groups", "4"],
        ["bench", "--block", "brg", "--gs", "0", "--h", "4", "--w", "4", "--c", "8",
         "--cp", "4", "--nodes", "2"],
    ], ids=["flops-out", "bench-out", "oracle-out", "affinity-out", "train-out", "oracle-n0",
            "affinity-n0", "affinity-cp", "bench-h", "flops-groups", "bench-gs"])
    def test_bad_input_is_one_line_validation_failure(self, argv, tmp_path, capsys):
        paths = {"missing": tmp_path / "missing" / "x.csv", "tmp": tmp_path}
        assert main([arg.format(**paths) for arg in argv]) == 1
        self._one_line_error(capsys)

    def test_missing_config_file_is_validation_failure(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "missing.cfg")]) == 1
        self._one_line_error(capsys)

    def test_config_file_with_duplicate_key_is_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "layer.cfg"
        path.write_text("c=8\ncp=4\ncp=2\n")
        assert main(["bench", "--block", "srg", "--h", "4", "--w", "4",
                     "--config", str(path)]) == 1
        assert "line 3: duplicate key 'cp'" in self._one_line_error(capsys)

    def test_affinity_on_ablated_checkpoint_is_validation_failure(self, tmp_path, capsys):
        from repgraph.train import TrainConfig, init_toy_model, save_checkpoint

        cfg = TrainConfig(width=8, cp=4, s=2, ablate=True)
        save_checkpoint(init_toy_model(cfg), cfg, str(tmp_path / "ck"))
        assert main(["affinity", "--ckpt", str(tmp_path / "ck"),
                     "--out", str(tmp_path / "a")]) == 1
        self._one_line_error(capsys)


    def test_affinity_on_missing_checkpoint_is_validation_failure(self, tmp_path, capsys):
        assert main(["affinity", "--ckpt", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "a")]) == 1
        self._one_line_error(capsys)


class TestGradcheckCommand:
    def test_single_cases_report(self, tmp_path, capsys):
        # Exercise the CSV path through the library runner on two cases to
        # keep this suite quick; the full sweep runs in the acceptance tests.
        from repgraph.gradcheck import run_case

        res = run_case("softmax", seed=0)
        assert res.passed
        res = run_case("bilinear_sample", seed=1)
        assert res.passed
