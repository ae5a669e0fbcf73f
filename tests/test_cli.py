import argparse
import ast
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import nodehead.cli as cli
import nodehead.errors as errors
from conftest import make_cifar_blob, make_class_corpus
from nodehead.cli import main, read_manifest
from nodehead.data import Dataset, save_feature_file
from nodehead.errors import NumericError
from nodehead.model import head_to_flat, init_baseline_head, load_checkpoint
from nodehead.train import read_metrics_csv


@pytest.fixture
def feature_file(tmp_path):
    """Learnable 2-cluster feature set saved in the NODF layout."""
    gen = np.random.default_rng(9)
    labels = gen.integers(0, 2, 80)
    centers = np.array([[1.0, -1.0, 0.5, -0.5, 0.2, -0.2], [-1.0, 1.0, -0.5, 0.5, -0.2, 0.2]])
    feats = np.tanh(centers[labels] + 0.3 * gen.standard_normal((80, 6)))
    feats = feats.astype(np.float32).astype(np.float64)
    path = tmp_path / "feats.nodf"
    save_feature_file(Dataset(feats, labels, class_count=2), path)
    return path


def mask_wall_ms(csv_text):
    """Metrics CSV with the wall-clock column blanked (the one timing field)."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    for row in rows[1:]:
        row[5] = ""
    return "\n".join(",".join(r) for r in rows)


class TestTrainCommand:
    def test_noop_run_writes_one_row_and_initial_checkpoint(self, feature_file, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--head", "baseline", "--epochs", "1", "--lr", "0",
                     "--data", str(feature_file), "--out", str(out)])
        assert code == 0
        records = read_metrics_csv(out / "metrics.csv")
        assert len(records) == 1
        head = load_checkpoint(out / "head.nodc")
        # feature files carry no class count; datasets default to the CIFAR 10
        init = init_baseline_head(0, 6, 10)
        np.testing.assert_array_equal(head_to_flat(head), head_to_flat(init))

    def test_manifest_records_paper_tolerances(self, feature_file, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--head", "node", "--grad", "adjoint", "--rtol", "1e-5",
                     "--atol", "1e-5", "--epochs", "1", "--width", "4",
                     "--data", str(feature_file), "--out", str(out)])
        assert code == 0
        command, args = read_manifest(out / "manifest.txt")
        assert command == "train"
        assert args["rtol"] == "1e-05" and args["atol"] == "1e-05"
        assert args["optimizer"] == "sgd"  # adjoint pairing resolved into the manifest
        started = (out / "manifest.txt").read_text()
        assert "started_at=" in started and "finished_at=" in started

    def test_same_flags_reproduce_csv(self, feature_file, tmp_path):
        argv = ["train", "--head", "node", "--epochs", "2", "--width", "4", "--n-steps", "4",
                "--batch-size", "16", "--data", str(feature_file)]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "metrics.csv").read_text()
        b = (tmp_path / "b" / "metrics.csv").read_text()
        assert mask_wall_ms(a) == mask_wall_ms(b)

    def test_rerun_from_manifest_reproduces_csv(self, feature_file, tmp_path):
        out = tmp_path / "orig"
        assert main(["train", "--head", "node", "--epochs", "2", "--width", "4",
                     "--n-steps", "4", "--data", str(feature_file), "--out", str(out)]) == 0
        assert main(["rerun", str(out / "manifest.txt"), "--out", str(tmp_path / "redo")]) == 0
        a = (out / "metrics.csv").read_text()
        b = (tmp_path / "redo" / "metrics.csv").read_text()
        assert mask_wall_ms(a) == mask_wall_ms(b)
        assert (out / "head.nodc").read_bytes() == (tmp_path / "redo" / "head.nodc").read_bytes()

    def test_usage_error_exits_one(self, capsys):
        assert main(["train", "--head", "vit"]) == 1

    def test_missing_data_file_exits_two(self, tmp_path):
        assert main(["train", "--head", "baseline", "--data", str(tmp_path / "nope.bin"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_corrupt_data_exits_two(self, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(100))  # not a record multiple
        assert main(["train", "--head", "baseline", "--data", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_out_of_range_label_exits_two_naming_file(self, feature_file, tmp_path, capsys):
        bad = tmp_path / "bad_label.nodf"
        blob = bytearray(feature_file.read_bytes())
        blob[-1] = 12  # last record's label byte
        bad.write_bytes(bytes(blob))
        assert main(["train", "--head", "node", "--width", "4", "--n-steps", "2",
                     "--data", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "bad_label.nodf: record 79 has label 12" in capsys.readouterr().err

    def test_label_less_feature_file_exits_two_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "nolabels.nodf"
        save_feature_file(Dataset(np.zeros((4, 3)), np.zeros(4, dtype=np.int64)), bad)
        blob = bytearray(bad.read_bytes()[:-4])  # drop the label bytes
        blob[16] = 0  # has_labels
        bad.write_bytes(bytes(blob))
        assert main(["train", "--head", "baseline", "--data", str(bad),
                     "--out", str(tmp_path / "o")]) == 2
        assert "nolabels.nodf: file has no labels" in capsys.readouterr().err

    # a numeric failure ends in its one message line, with no numpy warning before it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_validation_loss_exits_three(self, feature_file, tmp_path, capsys):
        # one batch per epoch: the single Adam step at lr=1e308 puts the weights
        # near the float64 limit, so only the validation logits overflow
        code = main(["train", "--head", "baseline", "--lr", "1e308", "--epochs", "1",
                     "--batch-size", "128", "--data", str(feature_file),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            "nodehead train: non-finite validation loss at epoch 1"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_solver_failure_exits_three_naming_epoch_and_batch(self, feature_file, tmp_path,
                                                               capsys):
        # the first SGD step at lr=1e300 makes the field overflow in the second batch's solve
        code = main(["train", "--head", "node", "--optimizer", "sgd", "--lr", "1e300",
                     "--epochs", "1", "--batch-size", "16", "--width", "4", "--n-steps", "4",
                     "--data", str(feature_file), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "nodehead train: at epoch 1, batch 2 of 5: solver state became non-finite at t=")

    def test_empty_data_file_exits_two(self, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["train", "--head", "baseline", "--data", str(empty),
                     "--out", str(tmp_path / "o")]) == 2

    def test_commands_do_not_mutate_input_files(self, feature_file, tmp_path):
        before = feature_file.read_bytes()
        main(["train", "--head", "baseline", "--epochs", "1",
              "--data", str(feature_file), "--out", str(tmp_path / "r1")])
        main(["sweep-tol", "--tols", "1e-4", "--width", "4",
              "--data", str(feature_file), "--out", str(tmp_path / "r2")])
        assert feature_file.read_bytes() == before

    def test_cifar_input_goes_through_extractor(self, tmp_path):
        corpus = make_class_corpus(tmp_path / "imgs.bin", 60, seed=3, classes=10)
        out = tmp_path / "run"
        code = main(["train", "--head", "baseline", "--epochs", "1", "--feature-dim", "8",
                     "--data", str(corpus), "--out", str(out)])
        assert code == 0
        head = load_checkpoint(out / "head.nodc")
        assert head.d == 8 and head.classes == 10


    @pytest.mark.parametrize("argv", [
        ["train", "--head", "node", "--epochs", "1", "--width", "4"],
        ["compare", "--seeds", "0", "--epochs", "1", "--width", "4"],
    ], ids=["train", "compare"])
    def test_negative_extractor_seed_on_cifar_input_exits_one(self, argv, tmp_path, capsys):
        corpus = make_class_corpus(tmp_path / "imgs.bin", 20, seed=3, classes=10)
        out = tmp_path / "run"
        assert main(argv + ["--feature-dim", "8", "--extractor-seed", "-1", "--data", str(corpus),
                            "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--extractor-seed" in err[0]
        assert not (out / "metrics.csv").exists() and not (out / "seed0").exists()


class TestCompareCommand:
    def test_single_seed_short_run_flags_insufficient_window(self, feature_file, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--seeds", "0", "--epochs", "1", "--window", "10",
                     "--width", "4", "--n-steps", "4", "--data", str(feature_file),
                     "--out", str(out)])
        assert code == 0
        table = (out / "comparison.csv").read_text()
        assert table.count("insufficient-window") == 2
        summary = (out / "summary.txt").read_text()
        assert "undecided" in summary

    def test_summary_header_names_depth_and_width(self, feature_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--seeds", "0", "--epochs", "1", "--window", "10", "--width", "4",
                     "--n-steps", "3", "--data", str(feature_file), "--out", str(out)]) == 0
        header = (out / "summary.txt").read_text().splitlines()[0]
        assert "n_steps=3" in header and "width=4" in header

    def test_constant_loss_stub_gives_equal_stability(self, feature_file, tmp_path):
        # lr = 0 freezes both heads: every epoch repeats the same val loss,
        # so both stability metrics are exactly zero
        out = tmp_path / "cmp0"
        code = main(["compare", "--seeds", "1", "--epochs", "6", "--window", "3",
                     "--lr", "0", "--width", "4", "--n-steps", "4",
                     "--data", str(feature_file), "--out", str(out)])
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().splitlines()[1:]
        stds = [float(line.split(",")[5]) for line in lines]
        assert stds[0] == stds[1] == 0.0
        assert (out / "seed1" / "baseline" / "stability.csv").exists()
        assert (out / "seed1" / "node" / "stability.csv").exists()

    def test_emits_per_run_artifacts_and_test_accuracy(self, feature_file, tmp_path):
        out = tmp_path / "cmp2"
        code = main(["compare", "--seeds", "0,1", "--epochs", "4", "--window", "3",
                     "--width", "4", "--n-steps", "4", "--data", str(feature_file),
                     "--test-data", str(feature_file), "--out", str(out)])
        assert code == 0
        for seed in (0, 1):
            for head in ("baseline", "node"):
                run = out / f"seed{seed}" / head
                assert (run / "metrics.csv").exists()
                assert (run / "manifest.txt").exists()
                assert (run / "head.nodc").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        # a contract: the benchmark finds total_wall_s by its name
        assert header == ("seed,head,final_train_acc,final_val_acc,test_acc,"
                          "mean_rolling_std_val_loss,max_epoch_jump,total_wall_s,flag")
        row = (out / "comparison.csv").read_text().splitlines()[1].split(",")
        assert row[4] != ""  # test accuracy filled in

    def test_sub_run_manifest_reruns_byte_identically(self, feature_file, tmp_path):
        out = tmp_path / "cmp3"
        assert main(["compare", "--seeds", "2", "--epochs", "3", "--window", "2",
                     "--width", "4", "--n-steps", "4", "--data", str(feature_file),
                     "--out", str(out)]) == 0
        sub = out / "seed2" / "node"
        assert main(["rerun", str(sub / "manifest.txt"), "--out", str(tmp_path / "redo")]) == 0
        a = (sub / "metrics.csv").read_text()
        b = (tmp_path / "redo" / "metrics.csv").read_text()
        assert mask_wall_ms(a) == mask_wall_ms(b)

    @pytest.mark.parametrize("layout, builds", [("cifar", 1), ("nodf", 0)])
    def test_builds_at_most_one_extractor(self, layout, builds, feature_file, tmp_path,
                                          monkeypatch):
        real = cli.FrozenExtractor
        built = []
        monkeypatch.setattr(cli, "FrozenExtractor", lambda *a: built.append(a) or real(*a))
        data = feature_file
        if layout == "cifar":
            data = make_class_corpus(tmp_path / "imgs.bin", 40, seed=3, classes=10)
            test = make_class_corpus(tmp_path / "test.bin", 20, seed=4, classes=10)
        else:
            test = feature_file
        out = tmp_path / "cmp6"
        assert main(["compare", "--seeds", "0", "--epochs", "1", "--window", "2", "--width", "4",
                     "--n-steps", "2", "--feature-dim", "6", "--data", str(data),
                     "--test-data", str(test), "--out", str(out)]) == 0
        assert built == [(0, 6)] * builds

    def test_corrupt_data_exits_two_naming_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(100))  # not a record multiple
        out = tmp_path / "cmp4"
        assert main(["compare", "--seeds", "0,1", "--data", str(bad), "--out", str(out)]) == 2
        assert "bad.bin" in capsys.readouterr().err
        assert not (out / "seed0").exists()  # no run started

    def test_failed_run_is_flagged_and_later_runs_still_execute(self, feature_file, tmp_path,
                                                                monkeypatch, capsys):
        real_train = cli.train

        def train(head_kind, dataset, cfg):
            if head_kind == "node" and cfg.seed == 0:
                raise NumericError("injected failure")
            return real_train(head_kind, dataset, cfg)

        monkeypatch.setattr(cli, "train", train)
        out = tmp_path / "cmp5"
        code = main(["compare", "--seeds", "0,1", "--epochs", "2", "--window", "2",
                     "--width", "4", "--n-steps", "2", "--data", str(feature_file),
                     "--out", str(out)])
        assert code == 3
        assert "nodehead train: injected failure" in capsys.readouterr().err
        rows = [line.split(",") for line in (out / "comparison.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[1], r[-1]) for r in rows] == [
            ("0", "baseline", "ok"), ("0", "node", "failed-exit-3"),
            ("1", "baseline", "ok"), ("1", "node", "ok"),
        ]
        assert (out / "seed1" / "node" / "metrics.csv").exists()
        assert "1 run(s) failed" in (out / "summary.txt").read_text()


class TestBadFlagsExitThroughTable:
    """A bad flag ends in its exit code and one message line naming it, not a traceback."""

    @pytest.mark.parametrize("command, flags, code, named", [
        ("train", ["--scale", "-1"], 1, "scale"),
        ("train", ["--scale", "nan"], 1, "scale"),
        ("train", ["--width", "0"], 1, "width=0"),
        ("train", ["--grad", "adjoint", "--rtol", "nan"], 1, "rtol=nan"),
        ("train", ["--lr", "nan"], 1, "lr must be"),
        ("train", ["--eps", "nan"], 1, "eps must be"),
        ("compare", ["--test-data", "other-dim.nodf"], 2, "other-dim.nodf"),
        ("train", ["--data", "featureless.nodf"], 2, "featureless.nodf: header field d is 0"),
        ("compare", ["--data", "featureless.nodf"], 2, "featureless.nodf: header field d is 0"),
        ("train", ["--data", "short.nodf"], 2, "short.nodf: 5 bytes is shorter than the 17-byte NODF header"),
        ("compare", ["--test-data", "v9.nodf"], 2, "v9.nodf: unsupported NODF version 9, expected 1"),
        ("gradcheck", ["--d", "0"], 1, "d=0"),
        ("gradcheck", ["--classes", "0"], 1, "classes=0"),
        ("gradcheck", ["--fd-step", "0"], 1, "--fd-step"),
        ("gradcheck", ["--fd-step", "nan"], 1, "--fd-step"),
        ("gradcheck", ["--fd-step", "inf"], 1, "--fd-step"),
        ("gradcheck", ["--fd-step", "-0.00001"], 1, "--fd-step"),
        ("compare", ["--window", "1"], 1, "--window"),
        ("gradcheck", ["--max-rel", "nan"], 1, "--max-rel"),
        ("gradcheck", ["--max-rel", "-0.1"], 1, "--max-rel"),
        ("gradcheck", ["--max-abs", "nan"], 1, "--max-abs"),
        ("gradcheck", ["--max-abs", "-0.000001"], 1, "--max-abs"),
        ("train", ["--limit", "-5"], 1, "--limit"),
        ("compare", ["--limit", "-5"], 1, "--limit"),
        ("gradcheck", ["--seed", "-1"], 1, "--seed"),
        ("train", ["--extractor-seed", "-1"], 1, "--extractor-seed"),
        ("train", ["--feature-dim", "0"], 1, "--feature-dim must be in [1, 3072], got 0"),
        ("compare", ["--feature-dim", "5000"], 1, "--feature-dim must be in [1, 3072], got 5000"),
        ("plot", ["--columns", "bogus"], 1, "bogus"),
        ("compare", ["--extractor-seed", "-1"], 1, "--extractor-seed"),
        ("sweep-tol", ["--extractor-seed", "-1"], 1, "--extractor-seed"),
        ("compare", ["--seeds", ""], 1, "--seeds"),
        ("compare", ["--seeds", ","], 1, "--seeds"),
        ("compare", ["--seeds", "0,0"], 1, "seed 0"),
        ("compare", ["--seeds", "3,1,3"], 1, "seed 3"),
        ("sweep-tol", ["--tols", ""], 1, "--tols"),
        ("sweep-tol", ["--tols", "1e-3,inf"], 1, "rtol=inf"),
        ("train", ["--grad", "adjoint", "--rtol", "inf", "--atol", "inf"], 1, "rtol=inf"),
        ("train", ["--grad", "adjoint", "--atol", "inf"], 1, "atol=inf"),
        ("train", ["--lr", "inf"], 1, "lr must be a finite number >= 0, got inf"),
        ("train", ["--optimizer", "sgd", "--lr", "inf"], 1, "lr must be a finite number >= 0, got inf"),
        ("train", ["--eps", "inf"], 1, "eps must be a finite number > 0, got inf"),
        ("compare", ["--lr", "inf"], 1, "lr must be a finite number >= 0, got inf"),
        ("compare", ["--eps", "inf"], 1, "eps must be a finite number > 0, got inf"),
        ("compare", ["--epochs", "0"], 1, "epochs"),
        ("compare", ["--batch-size", "0"], 1, "batch_size"),
        ("compare", ["--n-steps", "0"], 1, "n_steps"),
        ("compare", ["--val-fraction", "1.5"], 1, "val_fraction"),
        ("compare", ["--width", "0"], 1, "width=0"),
        ("compare", ["--scale", "nan"], 1, "scale"),
        ("train", ["--data", "a\nb"], 1, "newline"),
        ("gradcheck", ["--batch", "-1"], 1, "--batch"),
        ("gradcheck", ["--batch", "0"], 1, "--batch"),
        ("gradcheck", ["--fd-n-steps", "0"], 1, "--fd-n-steps"),
        ("gradcheck", ["--width", "0"], 1, "width=0"),
        ("gradcheck", ["--scale", "nan"], 1, "scale"),
        ("gradcheck", ["--n-steps", "0"], 1, "n_steps"),
        ("gradcheck", ["--rtol", "nan"], 1, "rtol=nan"),
        ("gradcheck", ["--atol", "inf"], 1, "atol=inf"),
        ("sweep-tol", ["--width", "0"], 1, "width=0"),
        ("sweep-tol", ["--scale", "nan"], 1, "scale"),
        ("sweep-tol", ["--mode", "train", "--epochs", "0"], 1, "epochs"),
        ("sweep-tol", ["--mode", "train", "--batch-size", "0"], 1, "batch_size"),
        ("sweep-tol", ["--mode", "train", "--val-fraction", "1.5"], 1, "val_fraction"),
        ("sweep-tol", ["--limit", "-5"], 1, "--limit"),
        ("sweep-tol", ["--mode", "eval", "--epochs", "0"], 1, "epochs"),
        ("sweep-tol", ["--mode", "eval", "--batch-size", "-3"], 1, "batch_size"),
        ("sweep-tol", ["--mode", "eval", "--val-fraction", "5"], 1, "val_fraction"),
    ], ids=["train-scale-negative", "train-scale-nan", "train-width-0", "train-rtol-nan",
            "train-lr-nan", "train-eps-nan", "compare-test-data-dim", "train-data-d-0",
            "compare-data-d-0", "train-data-short-header", "compare-test-data-version-9", "gradcheck-d-0",
            "gradcheck-classes-0", "gradcheck-fd-step-0", "gradcheck-fd-step-nan",
            "gradcheck-fd-step-inf", "gradcheck-fd-step-negative", "compare-window-1",
            "gradcheck-max-rel-nan", "gradcheck-max-rel-negative", "gradcheck-max-abs-nan",
            "gradcheck-max-abs-negative", "train-limit-negative", "compare-limit-negative",
            "gradcheck-seed-negative", "train-extractor-seed-negative", "train-feature-dim-0",
            "compare-feature-dim-5000", "plot-unknown-column",
            "compare-extractor-seed-negative", "sweep-tol-extractor-seed-negative",
            "compare-seeds-empty", "compare-seeds-comma", "compare-seeds-repeated",
            "compare-seeds-repeated-apart", "sweep-tol-tols-empty", "sweep-tol-tols-inf",
            "train-tolerances-inf", "train-atol-inf", "train-lr-inf", "train-sgd-lr-inf",
            "train-eps-inf", "compare-lr-inf", "compare-eps-inf", "compare-epochs-0",
            "compare-batch-size-0", "compare-n-steps-0", "compare-val-fraction-1.5",
            "compare-width-0", "compare-scale-nan", "train-data-newline", "gradcheck-batch-negative",
            "gradcheck-batch-0", "gradcheck-fd-n-steps-0", "gradcheck-width-0", "gradcheck-scale-nan",
            "gradcheck-n-steps-0", "gradcheck-rtol-nan", "gradcheck-atol-inf", "sweep-tol-width-0",
            "sweep-tol-scale-nan", "sweep-tol-train-epochs-0", "sweep-tol-train-batch-size-0",
            "sweep-tol-train-val-fraction-1.5", "sweep-tol-limit-negative", "sweep-tol-eval-epochs-0",
            "sweep-tol-eval-batch-size-negative", "sweep-tol-eval-val-fraction-5"])
    def test_exit_code_and_one_line(self, command, flags, code, named, feature_file, tmp_path,
                                    capsys):
        gen = np.random.default_rng(1)
        save_feature_file(Dataset(gen.standard_normal((20, 8)), gen.integers(0, 2, 20)),
                          tmp_path / "other-dim.nodf")
        save_feature_file(Dataset(np.zeros((20, 0)), gen.integers(0, 2, 20)), tmp_path / "featureless.nodf")
        (tmp_path / "short.nodf").write_bytes(b"NODF\x01")
        v9 = bytearray(feature_file.read_bytes())
        v9[4] = 9  # the version byte
        (tmp_path / "v9.nodf").write_bytes(v9)
        (tmp_path / "metrics.csv").write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
                                              "1,0.5,0.9,0.6,0.8,12.5,480\n")
        flags = [str(tmp_path / f) if f.endswith(".nodf") else f for f in flags]
        argv = {
            "train": ["train", "--head", "node", "--epochs", "1", "--width", "4",
                      "--data", str(feature_file)],
            "compare": ["compare", "--seeds", "0", "--epochs", "1", "--width", "4",
                        "--data", str(feature_file)],
            "gradcheck": ["gradcheck"],
            "sweep-tol": ["sweep-tol", "--tols", "1e-3", "--width", "4", "--data", str(feature_file)],
            "plot": ["plot", "--csv", str(tmp_path / "metrics.csv")],
        }[command]
        out = tmp_path / "out"
        assert main(argv + flags + ["--out", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"nodehead {command}: ") and named in err[0]
        assert not (out / "seed0").exists()  # compare stops before any run starts
        if code == 1:
            assert not out.exists()  # a bad flag stops the command before its manifest is written


def test_every_package_error_ends_in_an_exit_code():
    """``nodehead.errors`` holds one class per non-zero exit code, and the
    command runner turns each into its code: no package error can end a
    command in a traceback."""
    defined = [kind for kind in vars(errors).values()
               if isinstance(kind, type) and kind.__module__ == errors.__name__]

    def fail(args, kind):
        raise kind("injected")

    codes = {kind.__name__: cli._run(fail, argparse.Namespace(command="train"), kind) for kind in defined}
    assert codes == {"ContractError": 1, "FormatError": 2, "NumericError": 3}


class TestFlagDeclarations:
    """Each flag is declared once, so subcommands that share it share its type and help."""

    @staticmethod
    def subcommands():
        parser = cli.build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_each_option_string_has_one_add_argument_call(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        declared = [arg.value for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                    for arg in node.args if isinstance(arg, ast.Constant)]
        assert "--out" in declared
        assert sorted(declared) == sorted(set(declared))

    def test_a_shared_flag_has_one_type_and_help(self):
        uses = {}
        for command, parser in self.subcommands().items():
            for action in parser._actions:
                for option in action.option_strings:
                    uses.setdefault(option, []).append((command, action.type, action.help))
        shared = {option: seen for option, seen in uses.items() if len(seen) > 1}
        assert {"--out", "--seed", "--width", "--scale", "--rtol", "--n-steps"} <= set(shared)
        for option, seen in shared.items():
            assert len({(kind, text) for _, kind, text in seen}) == 1, (option, seen)

    def test_gradcheck_defaults(self):
        args = cli.build_parser().parse_args(["gradcheck", "--out", "o"])
        assert (args.d, args.width, args.scale, args.seed, args.classes, args.batch) == (4, 8, 0.5, 0, 3, 3)
        assert (args.rtol, args.atol, args.n_steps) == (1e-8, 1e-8, 500)
        assert (args.fd_n_steps, args.fd_step, args.max_rel, args.max_abs) == (100, 1e-5, 1e-3, 1e-6)
        assert "--max-steps" not in self.subcommands()["gradcheck"]._option_string_actions


class TestGradcheckCommand:
    def test_small_head_passes_at_tight_tolerance(self, tmp_path):
        code = main(["gradcheck", "--d", "3", "--width", "4", "--seed", "0",
                     "--n-steps", "200", "--fd-n-steps", "80", "--out", str(tmp_path / "gc")])
        assert code == 0

    def test_default_flags_pass(self, tmp_path):
        # defaults are d=4, width=8, seed=0, rtol=atol=1e-8, thresholds 1e-3/1e-6
        assert main(["gradcheck", "--out", str(tmp_path / "gc")]) == 0

    def test_zero_scale_head_agrees_exactly(self, tmp_path):
        code = main(["gradcheck", "--d", "1", "--width", "1", "--scale", "0", "--seed", "0",
                     "--n-steps", "60", "--fd-n-steps", "40", "--out", str(tmp_path / "gc")])
        assert code == 0

    def test_impossible_threshold_exits_three(self, tmp_path, capsys):
        code = main(["gradcheck", "--d", "3", "--width", "4", "--seed", "0",
                     "--n-steps", "100", "--fd-n-steps", "50", "--max-rel", "1e-18",
                     "--max-abs", "1e-18", "--out", str(tmp_path / "gc")])
        assert code == 3
        assert "exceeds" in capsys.readouterr().err

    def test_loose_tolerance_degrades_adjoint_agreement(self, tmp_path, capsys):
        def adjoint_dev(rtol):
            main(["gradcheck", "--d", "3", "--width", "4", "--seed", "1", "--scale", "1.5",
                  "--rtol", rtol, "--atol", rtol, "--n-steps", "200", "--fd-n-steps", "80",
                  "--out", str(tmp_path / f"gc{rtol}")])
            out = capsys.readouterr().out
            line = [l for l in out.splitlines() if l.startswith("fd-vs-adjoint")][0]
            return float(line.split()[2])

        assert adjoint_dev("1e-1") > adjoint_dev("1e-8")


class TestSweepCommand:
    def test_single_tolerance_single_row(self, feature_file, tmp_path):
        out = tmp_path / "sweep1"
        code = main(["sweep-tol", "--tols", "1e-5", "--data", str(feature_file),
                     "--width", "4", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("1e-05,1e-05,")

    def test_feval_column_monotone_and_paper_row_present(self, feature_file, tmp_path):
        out = tmp_path / "sweep3"
        code = main(["sweep-tol", "--tols", "1e-3,1e-5,1e-7", "--scale", "3.0",
                     "--limit", "8", "--width", "8", "--data", str(feature_file),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert len(lines) == 3
        fevals = [int(line.split(",")[2]) for line in lines]
        assert fevals[0] <= fevals[1] <= fevals[2]
        assert fevals[2] > fevals[0]
        assert any(line.startswith("1e-05,1e-05,") for line in lines)


class TestPlotCommand:
    def test_one_row_csv_single_point(self, tmp_path):
        csv = tmp_path / "m.csv"
        csv.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
                       "1,0.5,0.9,0.6,0.8,12.5,480\n")
        out = tmp_path / "plots"
        code = main(["plot", "--csv", str(csv), "--columns", "val_loss", "--out", str(out)])
        assert code == 0
        svg = (out / "val_loss.svg").read_text()
        root = ET.fromstring(svg)
        assert len(root.findall("{http://www.w3.org/2000/svg}circle")) == 1

    def test_malformed_csv_exits_two_with_line_number(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
                       "1,0.5,0.9\n")
        code = main(["plot", "--csv", str(csv), "--out", str(tmp_path / "p")])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_header_only_csv_exits_two_naming_file(self, tmp_path, capsys):
        csv = tmp_path / "header-only.csv"
        csv.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n")
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("nodehead plot: ") and str(csv) in err[0]

    def test_non_finite_cell_exits_two_naming_file_line_and_column(self, tmp_path, capsys):
        csv = tmp_path / "non-finite.csv"
        csv.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
                       "1,0.5,0.9,nan,0.8,12.5,480\n"
                       "2,0.4,0.9,inf,0.8,12.5,480\n")
        out = tmp_path / "p"
        assert main(["plot", "--csv", str(csv), "--columns", "val_loss", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"nodehead plot: {csv}: line 2: column val_loss")
        assert not (out / "val_loss.svg").exists()

    @pytest.mark.parametrize("pixels", ["random", "zero"])
    def test_binary_csv_exits_two_naming_file(self, pixels, tmp_path, capsys):
        # zero pixels decode as text, but 60 records make one CSV field longer
        # than the csv module's field limit
        data = tmp_path / "c.bin"
        blank = np.zeros((60, 3072), dtype=np.uint8) if pixels == "zero" else None
        data.write_bytes(make_cifar_blob(np.arange(60) % 10, blank))
        assert main(["plot", "--csv", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"nodehead plot: {data}: not a text file")

    @pytest.mark.parametrize("content, where", [
        (b"\0" * 100, "line 1: bad header "),
        (b"x" * 5000, "line 1: bad header "),
        (b"epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n1,%s,0.9,0.6,0.8,12.5,480\n"
         % (b"x" * 3000), "line 2: column train_loss: "),
        (b"epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n1,%s,0.9,0.6,0.8,12.5,480\n"
         % (b"7" * 3000), "line 2: column train_loss: non-finite value "),
    ], ids=["nul-bytes", "one-line-text", "long-cell", "long-overflowing-cell"])
    def test_a_long_bad_row_or_cell_is_quoted_in_a_short_line(self, content, where, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        csv.write_bytes(content)
        assert main(["plot", "--csv", str(csv), "--out", str(tmp_path / "p")]) == 2
        err = capsys.readouterr().err.splitlines()
        prefix = f"nodehead plot: {csv}: "
        assert len(err) == 1 and err[0].startswith(prefix + where)
        assert "..." in err[0] and len(err[0]) - len(prefix) < 120

    def test_all_columns_from_real_run(self, feature_file, tmp_path):
        out = tmp_path / "run"
        main(["train", "--head", "baseline", "--epochs", "3", "--data", str(feature_file),
              "--out", str(out)])
        plots = tmp_path / "plots"
        code = main(["plot", "--csv", str(out / "metrics.csv"), "--out", str(plots)])
        assert code == 0
        for name in ("train_loss", "train_acc", "val_loss", "val_acc", "wall_ms", "n_feval"):
            ET.fromstring((plots / f"{name}.svg").read_text())


class TestManifestContract:
    def test_every_command_writes_manifest_before_running(self, feature_file, tmp_path):
        out = tmp_path / "sweepm"
        main(["sweep-tol", "--tols", "1e-4", "--data", str(feature_file),
              "--width", "4", "--out", str(out)])
        command, args = read_manifest(out / "manifest.txt")
        assert command == "sweep-tol"
        assert args["tols"] == "0.0001"

    @pytest.mark.parametrize("argv", [
        ["train", "--head", "node", "--epochs", "1", "--width", "4", "--n-steps", "2",
         "--lr", "0.123456789", "--data", "{feats}"],
        ["compare", "--seeds", "0,1", "--epochs", "1", "--window", "2", "--width", "4",
         "--n-steps", "2", "--val-fraction", "0.3", "--data", "{feats}", "--test-data", "{feats}"],
        ["gradcheck", "--d", "2", "--width", "2", "--n-steps", "20", "--fd-n-steps", "10",
         "--max-rel", "1", "--max-abs", "1"],
        ["sweep-tol", "--tols", "0.123456789,1e-5", "--limit", "8", "--width", "4",
         "--data", "{feats}"],
        ["plot", "--csv", "{csv}", "--columns", "val_loss,train_acc"],
    ], ids=lambda argv: argv[0])
    def test_manifest_round_trips_through_rerun(self, argv, feature_file, tmp_path, monkeypatch):
        csv = tmp_path / "m.csv"
        csv.write_text("epoch,train_loss,train_acc,val_loss,val_acc,wall_ms,n_feval\n"
                       "1,0.5,0.9,0.6,0.8,12.5,480\n")
        argv = [a.format(feats=feature_file, csv=csv) for a in argv]
        recorded = []  # the namespace each manifest was written from
        real_write = cli.write_manifest

        def write_manifest(path, args):
            recorded.append(dict(vars(args)))
            real_write(path, args)

        monkeypatch.setattr(cli, "write_manifest", write_manifest)
        code = main(argv + ["--out", str(tmp_path / "a")])
        original = recorded[0]
        recorded.clear()
        assert main(["rerun", str(tmp_path / "a" / "manifest.txt"), "--out", str(tmp_path / "b")]) == code
        again = recorded[0]
        assert (original.pop("out"), again.pop("out")) == (str(tmp_path / "a"), str(tmp_path / "b"))
        assert again == original

    def test_rerun_drops_flag_the_command_no_longer_takes(self, feature_file, tmp_path, capsys):
        # a sweep-tol manifest from when the command still declared --n-steps
        old = tmp_path / "old"
        old.mkdir()
        (old / "manifest.txt").write_text(
            "command=sweep-tol\ntoolkit_version=0.1.0\nstarted_at=2026-01-01T00:00:00.000000Z\n"
            "arg.tols=0.001,1e-05\narg.mode=eval\narg.epochs=5\narg.batch-size=64\n"
            "arg.val-fraction=0.1\narg.seed=0\n"
            f"arg.data={feature_file}\narg.feature-dim=64\narg.extractor-seed=0\narg.limit=8\n"
            "arg.width=4\narg.scale=0.1\narg.n-steps=16\narg.max-steps=100000\n"
            f"arg.out={old}\nfinished_at=2026-01-01T00:00:01.000000Z\n")
        assert main(["sweep-tol", "--tols", "0.001,1e-05", "--limit", "8", "--width", "4",
                     "--data", str(feature_file), "--out", str(tmp_path / "fresh")]) == 0
        capsys.readouterr()
        assert main(["rerun", str(old / "manifest.txt"), "--out", str(tmp_path / "redo")]) == 0
        assert "dropping --n-steps" in capsys.readouterr().err

        def without_wall_ms(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        redo, fresh = tmp_path / "redo" / "sweep.csv", tmp_path / "fresh" / "sweep.csv"
        assert without_wall_ms(redo) == without_wall_ms(fresh)
        _, recorded = read_manifest(tmp_path / "redo" / "manifest.txt")
        assert "n-steps" not in recorded

    def test_rejected_manifest_creates_no_out_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--head", "node", "--data", "a\nb", "--out", str(out)]) == 1
        assert "newline" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_of_a_removed_command_names_it(self, tmp_path, capsys):
        # a manifest recorded by the timing command, which the CLI no longer has
        m = tmp_path / "m.txt"
        m.write_text("command=bench\ntoolkit_version=0.1.0\narg.epochs=3\narg.data=feats.nodf\n"
                     f"arg.out={tmp_path / 'old'}\n")
        assert main(["rerun", str(m), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "bench" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_rerun_of_a_binary_file_exits_two_naming_it(self, tmp_path, capsys):
        data = tmp_path / "c.bin"
        data.write_bytes(make_cifar_blob(np.arange(60) % 10))
        assert main(["rerun", str(data), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"nodehead rerun: {data}: not a text file")
        assert not (tmp_path / "o").exists()

    def test_rerun_rejects_rerun_manifest(self, tmp_path):
        m = tmp_path / "m.txt"
        m.write_text("command=rerun\narg.out=x\n")
        assert main(["rerun", str(m), "--out", str(tmp_path / "o")]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "nodehead" in capsys.readouterr().out
