import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from pan import cli
from pan import training as tr
from pan.rng import derive_seed


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def run_cli_expect_usage_exit(*argv) -> int:
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    return exc.value.code


def dir_digest(path: Path) -> dict:
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "compat"
    code = run_cli(
        "gen", "--task", "compat-manifest", "--items", 150, "--dim", 12,
        "--attrs", 4, "--seed", 7, "--out", path,
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(bundle_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("runs") / "pan"
    code = run_cli(
        "train", "--bundle", bundle_dir, "--out", path,
        "--encoder", "mlp", "--mlp-dims", "16,8", "--epochs", 80, "--seed", 1,
        "--val-every", 40,
    )
    assert code == 0
    return path


class TestGen:
    def test_writes_bundle_and_oracle_report(self, bundle_dir):
        for name in ("manifest.json", "features.bin", "edges.csv", "splits.json",
                     "attributes.csv", "categories.csv", "sets.json",
                     "oracle_report.json", "run.json"):
            assert (bundle_dir / name).exists(), name
        report = json.loads((bundle_dir / "oracle_report.json").read_text())
        assert 0.5 <= report["presence_bayes_accuracy"]["test"] <= 1.0

    def test_missing_out_is_usage_error(self):
        assert run_cli_expect_usage_exit("gen", "--task", "compat-manifest") == 2

    def test_three_classes_give_one_class_per_split(self, tmp_path):
        out = tmp_path / "fs3"
        assert run_cli("gen", "--task", "fewshot-clusters", "--items", 30, "--dim", 8,
                       "--classes", 3, "--out", out) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["classes_per_split"] == {"base": 1, "val": 1, "novel": 1}

    def test_repeat_gives_identical_hashes(self, bundle_dir, tmp_path):
        again = tmp_path / "again"
        run_cli(
            "gen", "--task", "compat-manifest", "--items", 150, "--dim", 12,
            "--attrs", 4, "--seed", 7, "--out", again,
        )
        a, b = dir_digest(bundle_dir), dir_digest(again)
        assert {k: v for k, v in a.items() if k != "run.json"} == {
            k: v for k, v in b.items() if k != "run.json"
        }


    @pytest.mark.parametrize("argv,manifest,oracle", [
        ("compat-manifest --items 500 --dim 16 --attrs 6 --seed 7",
         "870ef0e3d4b434abf7c97955b958988d5a8e71c740468ef48038f682ccef062a",
         "f6456ae9b58dcf3428ee9fba2b512f85f8607810120aa907bd616d9eaceecdc3"),
        ("compat-manifest --items 2000 --dim 16 --attrs 6 --density 0.8 --noise 0.2 --seed 1",
         "1cffd121a2cf439f7cc7ccca45616f4bb160eb564b075277729390551c7d9e8c",
         "1cbf3c2fee081791f531959be96c335ca4737f5283a758430cdc4ce9b5867773"),
        ("fewshot-clusters --items 1000 --dim 32 --attrs 6 --noise 0.05 --classes 20 --seed 1",
         "e7301209df9db55fc54c2e3b9bd28e1850253cf7944f5607ffd8ca644185f581",
         "c717a11f49890cfdc225e4354be6e6fd56bccf45e200836c2c589c14b9b56c7d"),
        ("linear-separable --items 300 --dim 16 --attrs 6 --seed 1",
         "b98f840c2a42165ef0a21880f083d78194106ad283052f440ee5f97f8de71c47",
         "6bacec832a4e06b6be2394f1bfe9b1c2be64915203022c6e9fff8a105ef0d70d"),
    ], ids=["compat-500", "compat-2000", "fewshot-1000", "linear-300"])
    def test_pinned_bundle_bytes(self, tmp_path, argv, manifest, oracle):
        # the manifest holds the SHA-256 of every other bundle file
        assert run_cli("gen", "--task", *argv.split(), "--out", tmp_path) == 0
        digest = dir_digest(tmp_path)
        assert (digest["manifest.json"], digest["oracle_report.json"]) == (manifest, oracle)


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        for name in ("run.json", "checkpoint.json", "history.csv", "summary.json"):
            assert (trained_dir / name).exists(), name
        history = (trained_dir / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_metric"
        assert len(history) == 81

    def test_lambda_zero_supervised_matches_unsupervised_checkpoint(self, bundle_dir, tmp_path):
        common = ["--bundle", bundle_dir, "--epochs", 30, "--seed", 3, "--conditions", 4]
        sup = tmp_path / "sup"
        unsup = tmp_path / "unsup"
        assert run_cli("train", *common, "--supervision", "supervised",
                       "--lambda", 0, "--out", sup) == 0
        assert run_cli("train", *common, "--supervision", "unsupervised",
                       "--lambda", 0, "--out", unsup) == 0
        assert (sup / "checkpoint.json").read_bytes() == (unsup / "checkpoint.json").read_bytes()

    def test_relevance_off_scores_equal_mean_conditions(self, bundle_dir, tmp_path):
        out = tmp_path / "norel"
        assert run_cli(
            "train", "--bundle", bundle_dir, "--out", out, "--epochs", 20,
            "--seed", 2, "--relevance", "off",
        ) == 0
        from pan.data import load_bundle

        model = tr.load_checkpoint(out / "checkpoint.json")
        bundle = load_bundle(bundle_dir)
        pairs = [(0, 1), (3, 9), (10, 40)]
        scores = model.pair_scores(pairs, bundle.features)
        rho, _ = model.pair_conditions(pairs, bundle.features)
        np.testing.assert_allclose(scores, rho.mean(axis=1), atol=1e-12)

    def test_randomize_labels_flag_changes_training(self, bundle_dir, tmp_path):
        # every trainer that reads attributes; the Siamese baseline uses none
        for baseline in ("none", "multitask", "attr-sim"):
            base = tmp_path / baseline / "plain"
            rand = tmp_path / baseline / "rand"
            common = ["--bundle", bundle_dir, "--epochs", 20, "--seed", 4, "--baseline", baseline]
            assert run_cli("train", *common, "--out", base) == 0
            assert run_cli("train", *common, "--out", rand, "--randomize-labels") == 0
            assert (base / "checkpoint.json").read_bytes() != (
                rand / "checkpoint.json"
            ).read_bytes(), baseline

    def test_baseline_checkpoints_round_trip(self, bundle_dir, tmp_path):
        for baseline in ("siamese", "multitask", "attr-sim"):
            out = tmp_path / baseline
            assert run_cli(
                "train", "--bundle", bundle_dir, "--out", out, "--epochs", 15,
                "--seed", 5, "--baseline", baseline,
            ) == 0
            model = tr.load_checkpoint(out / "checkpoint.json")
            from pan.data import load_bundle

            bundle = load_bundle(bundle_dir)
            scores = model.pair_scores([(0, 1), (2, 3)], bundle.features)
            assert np.all((scores >= 0) & (scores <= 1))


class TestEval:
    @pytest.mark.parametrize("task,flags", [
        ("pair-acc", []),
        ("fitb", ["--choices", "4"]),
        ("auc", []),
        ("attr-map", []),
    ])
    def test_tasks_write_reports(self, bundle_dir, trained_dir, tmp_path, task, flags):
        out = tmp_path / task
        code = run_cli(
            "eval", "--checkpoint", trained_dir / "checkpoint.json",
            "--bundle", bundle_dir, "--task", task, "--out", out, *flags,
        )
        assert code == 0
        payload = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= payload["value"] <= 1.0
        assert "config_fingerprint" in payload
        assert (out / "metrics.csv").read_text().startswith("metric,")

    def test_skipped_attribute_is_null_in_metrics_json(self, bundle_dir, trained_dir, tmp_path):
        out = tmp_path / "attr-map"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", bundle_dir, "--task", "attr-map", "--max-pairs", 5,
                       "--out", out) == 0

        def no_constants(name):
            raise AssertionError(f"metrics.json holds {name}")

        detail = json.loads((out / "metrics.json").read_text(),
                            parse_constant=no_constants)["detail"]
        assert detail["skipped_attributes"]  # five pairs leave some attribute one-sided
        for a, ap in enumerate(detail["per_attribute_ap"]):
            assert (ap is None) == (a in detail["skipped_attributes"])
        cells = [line.split(",")[1] for line in
                 (out / "per_attribute_ap.csv").read_text().splitlines()[1:]]
        assert [c == "" for c in cells] == [ap is None for ap in detail["per_attribute_ap"]]

    def test_identical_invocations_identical_reports(self, bundle_dir, trained_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(
                "eval", "--checkpoint", trained_dir / "checkpoint.json",
                "--bundle", bundle_dir, "--task", "auc", "--out", out,
            ) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_zero_episodes_is_usage_error(self, bundle_dir, trained_dir, tmp_path):
        code = run_cli_expect_usage_exit(
            "eval", "--checkpoint", trained_dir / "checkpoint.json",
            "--bundle", bundle_dir, "--task", "fewshot", "--episodes", 0,
            "--out", tmp_path / "x",
        )
        assert code == 2

    def test_dimension_mismatch_exits_one_and_prints_both(self, bundle_dir, trained_dir,
                                                          tmp_path, capsys):
        other = tmp_path / "otherdim"
        run_cli("gen", "--task", "compat-manifest", "--items", 60, "--dim", 8,
                "--attrs", 4, "--seed", 1, "--out", other)
        siamese = tmp_path / "siamese"
        assert run_cli("train", "--bundle", bundle_dir, "--out", siamese,
                       "--epochs", 2, "--seed", 1, "--baseline", "siamese") == 0
        capsys.readouterr()
        for run in (trained_dir, siamese):
            code = run_cli(
                "eval", "--checkpoint", run / "checkpoint.json",
                "--bundle", other, "--task", "pair-acc", "--out", tmp_path / "y",
            )
            assert code == 1
            err = capsys.readouterr().err
            assert "12-dimensional" in err and "has 8" in err

    def test_recall_ranks_with_the_given_checkpoint(self, bundle_dir, trained_dir, tmp_path):
        other = tmp_path / "other"
        assert run_cli(
            "train", "--bundle", bundle_dir, "--out", other, "--encoder", "mlp",
            "--mlp-dims", "16,8", "--epochs", 20, "--seed", 2, "--val-every", 20,
        ) == 0
        from pan import evaluation as ev
        from pan.data import load_bundle

        bundle = load_bundle(bundle_dir)
        q_idx = np.asarray(bundle.splits["test"], dtype=np.int64)
        g_idx = np.asarray(bundle.splits["train"], dtype=np.int64)
        values = []
        for k, ckpt in enumerate((trained_dir / "checkpoint.json", other / "checkpoint.json")):
            out = tmp_path / f"recall{k}"
            assert run_cli(
                "eval", "--checkpoint", ckpt, "--bundle", bundle_dir, "--task", "recall",
                "--query-split", "test", "--gallery-split", "train", "--k", 1, "--out", out,
            ) == 0
            value = json.loads((out / "metrics.json").read_text())["value"]
            expected = ev.recall_at_k(
                bundle.features[q_idx], bundle.features[g_idx], bundle.categories[q_idx],
                bundle.categories[g_idx], 1, model=tr.load_checkpoint(ckpt),
            ).value
            assert value == expected
            values.append(value)
        assert values[0] != values[1]

    def test_several_checkpoints_need_rank_report(self, bundle_dir, trained_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "two"
        ckpt = trained_dir / "checkpoint.json"
        assert run_cli("eval", "--checkpoint", ckpt, ckpt, "--bundle", bundle_dir,
                       "--task", "pair-acc", "--out", out) == 1
        err = capsys.readouterr().err
        assert "pair-acc" in err and "Traceback" not in err
        assert not out.exists()

    def test_rank_report(self, bundle_dir, trained_dir, tmp_path):
        out = tmp_path / "ranks"
        code = run_cli(
            "eval", "--checkpoint", trained_dir / "checkpoint.json",
            trained_dir / "checkpoint.json", "--bundle", bundle_dir,
            "--task", "rank-report", "--out", out, "--max-pairs", 500,
        )
        assert code == 0
        lines = (out / "rank_report.csv").read_text().splitlines()
        assert lines[0].startswith("attribute,mean_rank_relevance")
        assert len(lines) == 5  # four conditions
        for line in lines[1:]:
            assert line.split(",")[2] == "0.0"  # identical runs: sd 0

    @pytest.mark.parametrize("task,flags", [
        ("pair-acc", []),
        ("fitb", ["--choices", 3]),
        ("auc", []),
        ("fewshot", ["--way", 2, "--shot", 1, "--query", 1, "--episodes", 6]),
        ("recall", ["--k", 2]),
        ("recall", ["--query-split", "test", "--gallery-split", "test"]),
        ("attr-map", ["--max-pairs", 300, "--fa", "xor"]),
    ], ids=["pair-acc", "fitb", "auc", "fewshot", "recall", "recall-one-split", "attr-map"])
    def test_report_is_the_metric_on_the_documented_streams(self, bundle_dir, trained_dir,
                                                            tmp_path, task, flags):
        """pan eval's value and count are, bit for bit, the metric's on inputs
        built here from the labelled streams of --seed."""
        from pan import evaluation as ev
        from pan.data import (
            build_episodes, build_fitb_questions, load_bundle, resample_negative_sets,
        )
        from pan.encoders import within_pairs
        from pan.rng import generator

        seed, out, ckpt = 4, tmp_path / "out", trained_dir / "checkpoint.json"
        assert run_cli("eval", "--checkpoint", ckpt, "--bundle", bundle_dir, "--task", task,
                       "--seed", seed, "--out", out, *flags) == 0
        payload = json.loads((out / "metrics.json").read_text())
        model, bundle = tr.load_checkpoint(ckpt), load_bundle(bundle_dir)
        feats, cats, test = bundle.features, bundle.categories, bundle.splits["test"]
        if task == "pair-acc":
            report = ev.balanced_pair_accuracy(model, feats, bundle.graph, test)
        elif task == "fitb":
            questions = build_fitb_questions(bundle.sets["test"], 3, cats,
                                             derive_seed(seed, "fitb"), pool=test)
            report = ev.fitb_accuracy(model, questions, feats)
        elif task == "auc":
            positives = [s for s in bundle.sets["test"] if len(s) >= 2]
            negatives = resample_negative_sets(positives, cats, derive_seed(seed, "neg-sets"),
                                               pool=test)
            report = ev.compatibility_auc(model, positives, negatives, feats)
        elif task == "fewshot":  # no novel split in this bundle: test
            episodes = build_episodes(bundle, 2, 1, 1, 6, derive_seed(seed, "episodes"),
                                      split="test")
            report = ev.few_shot_accuracy(model, episodes, feats)
        elif task == "recall" and "--gallery-split" in flags:  # alternate halves of test
            q, g = test[0::2], test[1::2]
            report = ev.recall_at_k(feats[q], feats[g], cats[q], cats[g], 1, model=model)
        elif task == "recall":
            train = bundle.splits["train"]
            report = ev.recall_at_k(feats[test], feats[train], cats[test], cats[train], 2,
                                    model=model)
        else:
            pairs = within_pairs(test)
            assert len(pairs) > 300  # so that the cap samples
            rng = generator(seed, "eval-pairs", "test")
            pairs = pairs[np.sort(rng.choice(len(pairs), size=300, replace=False))]
            report = ev.attribute_map(model, pairs, bundle.attributes, "xor", feats)
        assert float(payload["value"]).hex() == float(report.value).hex()
        assert payload["count"] == report.count


@pytest.mark.parametrize("command", ["", *cli.build_parser()._pan_subparsers])
def test_help_exits_zero(capsys, command):
    assert run_cli_expect_usage_exit(*([command] if command else []), "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: pan {command}".rstrip())


class TestGradcheck:
    def test_passes_fast(self):
        assert run_cli("gradcheck", "--seeds", 30) == 0

    def test_seed_count_flag(self, capsys):
        assert run_cli("gradcheck", "--seeds", 12, "--dims", "d=5,M=3") == 0
        out = capsys.readouterr().out
        assert "12 seeds" in out

    def test_wrong_sign_injection_fails(self):
        assert run_cli("gradcheck", "--seeds", 3, "--negate-analytic") == 1

    def test_draws_are_pinned(self):
        # seeds 0-99 of criterion 1: a change to the draws or to the kink
        # screen shows up here as a new hash
        digest = hashlib.sha256()
        for seed in range(100):
            _, params = cli.gradcheck_composition(seed, 6, 4)
            for name in sorted(params):
                digest.update(name.encode("utf-8"))
                digest.update(np.ascontiguousarray(params[name], dtype=np.float64).tobytes())
        assert digest.hexdigest() == (
            "c91d23e08aaaf2483195d01e28076d97c50251378f4c091cb7f56dfbc7d0c182"
        )


class TestSweep:
    def test_single_value_single_run_equals_train_plus_eval(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--axis", "lambda", "--values", "1", "--bundle", bundle_dir,
            "--out", out, "--runs", 1, "--epochs", 25, "--seed", 6,
        ) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,run,metric"
        value = float(rows[1].split(",")[2])

        direct = tmp_path / "direct"
        assert run_cli(
            "train", "--bundle", bundle_dir, "--out", direct, "--epochs", 25,
            "--lambda", 1, "--seed", derive_seed(6, "sweep", "1", 0),
        ) == 0
        ev_dir = tmp_path / "direct-eval"
        assert run_cli(
            "eval", "--checkpoint", direct / "checkpoint.json", "--bundle", bundle_dir,
            "--task", "pair-acc", "--out", ev_dir,
        ) == 0
        payload = json.loads((ev_dir / "metrics.json").read_text())
        assert payload["value"] == value

    def test_run_json_records_json_values(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--axis", "lambda", "--values", "0,1e-5", "--bundle", bundle_dir,
                       "--out", out, "--epochs", 1, "--mlp-dims", "24,16") == 0
        config = json.loads((out / "run.json").read_text())["config"]
        assert config["values"] == ["0", "1e-5"] and config["mlp_dims"] == [24, 16]
        assert config["runs"] == 1 and config["lambda_"] == 1.0 and config["eval_split"] is None

    def test_three_runs_interval_matches_hand_formula(self, bundle_dir, tmp_path):
        out = tmp_path / "sweep3"
        assert run_cli(
            "sweep", "--axis", "lambda", "--values", "0", "--bundle", bundle_dir,
            "--out", out, "--runs", 3, "--epochs", 20, "--seed", 8,
        ) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        metrics = [float(r.split(",")[2]) for r in rows]
        summary = (out / "summary.csv").read_text().splitlines()[1]
        _, mean_s, half_s, runs_s = summary.split(",")
        assert float(mean_s) == pytest.approx(np.mean(metrics), abs=1e-12)
        expected_half = 1.96 * np.std(metrics, ddof=1) / np.sqrt(3)
        assert float(half_s) == pytest.approx(expected_half, abs=1e-12)
        assert runs_s == "3"

    def test_fa_axis(self, bundle_dir, tmp_path):
        out = tmp_path / "sweepfa"
        assert run_cli(
            "sweep", "--axis", "fa", "--values", "or,xnor", "--bundle", bundle_dir,
            "--out", out, "--runs", 1, "--epochs", 15, "--seed", 9,
        ) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_out_of_range_value_fails_its_run(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "sweepnan"
        assert run_cli("sweep", "--axis", "lambda", "--values", "nan", "--bundle", bundle_dir,
                       "--out", out, "--epochs", 1) == 1
        captured = capsys.readouterr()
        assert "0/1 runs ok" in captured.out and "lambda_" in captured.err
        assert (out / "sweep.csv").read_text().splitlines()[1] == "nan,0,"
        assert not (out / "runs").exists()


    @pytest.mark.parametrize("jobs,cpus,workers", [
        (1000, 8, 3), (1000, 2, 2), (2, 8, 2), (1, 8, None),
    ], ids=["runs-bound", "cpus-bound", "jobs-bound", "one-job-no-pool"])
    def test_pool_is_clamped_to_runs_and_cpus(self, bundle_dir, tmp_path, monkeypatch,
                                              jobs, cpus, workers):
        made = []

        class RecordingPool:  # runs the jobs in this process; no worker starts
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert run_cli(
            "sweep", "--axis", "lambda", "--values", "0", "--runs", 3, "--bundle", bundle_dir,
            "--out", tmp_path / "sweep", "--epochs", 2, "--seed", 4, "--jobs", jobs,
        ) == 0
        assert made == ([] if workers is None else [workers])
        assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 4


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, bundle_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"epochs": 10, "seed": 11, "lambda_": 0.5}))
        out1 = tmp_path / "from-config"
        assert run_cli(
            "--config", cfg_path, "train", "--bundle", bundle_dir, "--out", out1
        ) == 0
        manifest = json.loads((out1 / "run.json").read_text())
        assert manifest["config"]["train"]["epochs"] == 10
        assert manifest["config"]["train"]["lambda_"] == 0.5
        out2 = tmp_path / "override"
        assert run_cli(
            "--config", cfg_path, "train", "--bundle", bundle_dir, "--out", out2,
            "--epochs", 5,
        ) == 0
        manifest2 = json.loads((out2 / "run.json").read_text())
        assert manifest2["config"]["train"]["epochs"] == 5

    def test_integer_for_a_float_flag_is_accepted(self, bundle_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lr": 1, "epochs": 2}))
        out = tmp_path / "int-lr"
        assert run_cli("--config", cfg_path, "train", "--bundle", bundle_dir, "--out", out) == 0
        assert json.loads((out / "run.json").read_text())["config"]["train"]["learning_rate"] == 1

    def test_config_numbers_record_as_their_flags_do(self, bundle_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lr": 1, "lambda_": 0}))
        common = ["--bundle", bundle_dir, "--epochs", 2, "--seed", 1]
        assert run_cli("--config", cfg, "train", *common, "--out", tmp_path / "a") == 0
        assert run_cli("train", *common, "--lr", 1, "--lambda", 0, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "run.json").read_bytes() == (
            tmp_path / "b" / "run.json").read_bytes()

    @pytest.mark.parametrize("command,key", [
        ("train", "bundle"), ("train", "out"), ("eval", "checkpoint"), ("eval", "task"),
        ("sweep", "axis"), ("sweep", "values"),
    ])
    def test_required_flag_key_is_usage_error(self, bundle_dir, trained_dir, tmp_path,
                                              capsys, command, key):
        # the key is given both in the file and on the command line, so only
        # its presence in the file can fail the call
        out = tmp_path / "out"
        argv = {
            "train": ["--bundle", bundle_dir, "--out", out, "--epochs", 1],
            "eval": ["--checkpoint", trained_dir / "checkpoint.json", "--bundle", bundle_dir,
                     "--task", "pair-acc", "--out", out],
            "sweep": ["--axis", "lambda", "--values", "0", "--bundle", bundle_dir,
                      "--out", out, "--epochs", 1],
        }[command]
        value = str(argv[argv.index(f"--{key}") + 1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run_cli_expect_usage_exit("--config", cfg, command, *argv) == 2
        err = capsys.readouterr().err
        assert f"key(s) {key} " in err and f"--{key}" in err
        assert not out.exists()

    def test_env_seed_default(self, bundle_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("PAN_SEED", "123")
        out = tmp_path / "envseed"
        assert run_cli("train", "--bundle", bundle_dir, "--out", out, "--epochs", 3) == 0
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["train"]["seed"] == 123

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "sweep"])
    def test_bad_env_seed_is_usage_error(self, bundle_dir, trained_dir, tmp_path, monkeypatch,
                                         capsys, command):
        monkeypatch.setenv("PAN_SEED", "abc")
        out = tmp_path / "out"
        argv = {
            "gen": ["gen", "--task", "compat-manifest", "--items", 60, "--out", out],
            "train": ["train", "--bundle", bundle_dir, "--out", out, "--epochs", 1],
            "eval": ["eval", "--checkpoint", trained_dir / "checkpoint.json",
                     "--bundle", bundle_dir, "--task", "pair-acc", "--out", out],
            "sweep": ["sweep", "--axis", "lambda", "--values", "0", "--bundle", bundle_dir,
                      "--out", out, "--epochs", 1],
        }[command]
        assert run_cli_expect_usage_exit(*argv) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "Traceback" not in err
        assert not out.exists()
        assert run_cli(*argv, "--seed", 7) == 0  # an explicit seed runs
        config = json.loads((out / "run.json").read_text())["config"]
        assert (config["train"] if command == "train" else config)["seed"] == 7


class TestSingleParsePath:
    """Flag text becomes a value in one place, the flag's own parser, whether it
    comes from the command line or from ``--config``."""

    # JSON values, by dest, for every flag that takes a value and has no
    # choices; each float flag gets a JSON integer
    VALUES = {
        "out": ["o"], "items": [500], "dim": [16], "attrs": [6], "seed": [7],
        "noise": [1, 0.25], "manifestations": [2], "density": [1], "classes": [20],
        "separation": [10], "hamming": [1],
        "bundle": ["b"], "mlp_dims": ["24,16", " 8 , 4 "], "gcn_layers": [2],
        "gcn_hidden": [16], "dropout": [0], "edge_dropout": [0], "conditions": [4],
        "lambda_": [0, 1e-5], "lr": [1], "epochs": [3], "batch_size": [8], "val_every": [2],
        "pairs_per_epoch": [64], "margin": [1],
        "checkpoint": ["c.json"], "split": ["test"], "choices": [4], "way": [3], "shot": [2],
        "query": [4], "episodes": [5], "k": [2], "query_split": ["test"],
        "gallery_split": ["val"], "max_pairs": [9],
        "dims": ["d=5,M=3", "M=2"], "seeds": [3], "tolerance": [1, 1e-6],
        "values": ["0,1e-5, 1"], "runs": [2], "jobs": [2], "eval_split": ["val"],
    }

    @pytest.mark.parametrize("command", sorted(cli.build_parser()._pan_subparsers))
    def test_config_value_equals_command_line_value(self, tmp_path, monkeypatch, command):
        monkeypatch.delenv("PAN_SEED", raising=False)
        sub = cli.build_parser()._pan_subparsers[command]
        flags = [a for a in sub._actions if a.option_strings and a.nargs != 0]
        # argparse takes a required flag from the command line only
        required = [x for a in flags if a.required
                    for x in (a.option_strings[0], sorted(a.choices or ["0"])[0])]
        cfg = tmp_path / "cfg.json"
        float_flags, given_ints = set(), set()
        for action in (a for a in flags if not a.required):
            values = [sorted(action.choices)[0]] if action.choices else self.VALUES[action.dest]
            for value in values:
                by_flag = cli.build_parser().parse_args(
                    [command, *required, action.option_strings[0], str(value)])
                cfg.write_text(json.dumps({action.dest: value}))
                parser = cli.build_parser()
                by_config = parser.parse_args(
                    cli._apply_config_file(parser, ["--config", str(cfg), command, *required]))
                # repr tells 1 from 1.0 and a tuple from a string
                assert repr(sorted(vars(by_config).items())) == repr(
                    sorted(vars(by_flag).items())), (action.dest, value)
                if isinstance(getattr(by_flag, action.dest), float):
                    float_flags.add(action.dest)
                    if type(value) is int:
                        given_ints.add(action.dest)
        assert given_ints == float_flags


class TestCleanFailures:
    """Malformed inputs exit 1 with a message naming the file, not a traceback."""

    def _eval(self, bundle_dir, checkpoint, out):
        return run_cli("eval", "--checkpoint", checkpoint, "--bundle", bundle_dir,
                       "--task", "pair-acc", "--out", out)

    @pytest.mark.parametrize("case", [
        "not-json", "missing-key", "wrong-type", "non-finite", "wrong-shape",
        "non-finite-baseline", "wrong-shape-baseline", "spec-deeper-than-weights",
        "spec-width-not-weight-width", "weights-on-identity", "csm-m-not-w1-width",
        "n-enc-layers-multitask",
    ])
    def test_malformed_checkpoint(self, bundle_dir, trained_dir, tmp_path, capsys, case):
        # the last five chain and score; only the checks against the spec reject them
        flags = {"baseline": ["--baseline", "siamese"], "identity": [],
                 "multitask": ["--baseline", "multitask"]}.get(case.split("-")[-1])
        if flags is not None:
            trained_dir = tmp_path / "trained"
            assert run_cli("train", "--bundle", bundle_dir, "--out", trained_dir,
                           "--epochs", 2, "--seed", 1, *flags) == 0
            capsys.readouterr()
        obj = json.loads((trained_dir / "checkpoint.json").read_text())
        bad = tmp_path / f"{case}.json"
        if case == "not-json":
            bad.write_text("{ this is not json")
        elif case == "missing-key":
            del obj["encoder"]
            bad.write_text(json.dumps(obj))
        elif case == "wrong-type":
            obj["encoder"]["weights"] = 5
            bad.write_text(json.dumps(obj))
        elif case == "non-finite":
            obj["encoder"]["weights"][0]["values"][0] = "inf"
            bad.write_text(json.dumps(obj))
        elif case == "wrong-shape":
            layer = obj["encoder"]["weights"][1]
            layer["rows"], layer["cols"] = layer["cols"], layer["rows"]
            bad.write_text(json.dumps(obj))
        elif case == "wrong-shape-baseline":
            link = obj["matrices"]["link_w"]
            link["rows"], link["cols"] = link["cols"], link["rows"]
            bad.write_text(json.dumps(obj))
        elif case == "spec-deeper-than-weights":  # trained as 16,8
            obj["encoder"]["layer_dims"] = [16, 8, 8]
            bad.write_text(json.dumps(obj))
        elif case == "spec-width-not-weight-width":
            obj["encoder"]["layer_dims"] = [24, 8]
            bad.write_text(json.dumps(obj))
        elif case == "weights-on-identity":
            obj["encoder"]["weights"] = [obj["csm"]["w2"]]
            bad.write_text(json.dumps(obj))
        elif case == "csm-m-not-w1-width":
            obj["csm"]["m"] = 99
            bad.write_text(json.dumps(obj))
        elif case == "n-enc-layers-multitask":
            obj["n_enc_layers"] = 2
            bad.write_text(json.dumps(obj))
        else:
            obj["matrices"]["embed_w"]["values"][0] = "inf"
            bad.write_text(json.dumps(obj))
        assert self._eval(bundle_dir, bad, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    def test_load_checkpoint_raises_contract_error(self, tmp_path):
        from pan import training as tr
        from pan.errors import ContractError

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ContractError, match="bad.json"):
            tr.load_checkpoint(bad)

    def test_non_integer_category_names_file_and_line(self, bundle_dir, trained_dir,
                                                      tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        path = broken / "categories.csv"
        lines = path.read_text().splitlines()
        lines[2] = lines[2].split(",")[0] + ",two"
        path.write_text("\n".join(lines) + "\n")
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["files"]["categories.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
        (broken / "manifest.json").write_text(json.dumps(manifest))
        assert self._eval(broken, trained_dir / "checkpoint.json", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"{path}:3" in err and "Traceback" not in err

    def test_unknown_config_key_is_usage_error(self, bundle_dir, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epocs": 5, "seed": 1}))
        code = run_cli_expect_usage_exit(
            "--config", cfg, "train", "--bundle", bundle_dir, "--out", tmp_path / "x"
        )
        assert code == 2
        assert "epocs" in capsys.readouterr().err

    @pytest.mark.parametrize("name,edit", [
        ("manifest.json", lambda obj: "{ not json"),
        ("manifest.json", lambda obj: {k: v for k, v in obj.items() if k != "files"}),
        ("manifest.json", lambda obj: {k: v for k, v in obj.items() if k != "n"}),
        ("splits.json", lambda obj: {**obj, "train": ["x", *obj["train"][1:]]}),
        ("splits.json", lambda obj: {**obj, "test": 3}),
        ("sets.json", lambda obj: "[1, 2"),
        ("sets.json", lambda obj: {**obj, "train": [[0, 1.5]]}),
        ("manifest.json", lambda obj: {**obj, "m": 5}),
        ("manifest.json", lambda obj: {**obj, "m": None}),
        ("manifest.json", lambda obj: {**obj, "m": 4.0}),
        ("manifest.json", lambda obj: {k: v for k, v in obj.items() if k != "m"}),
        ("manifest.json", lambda obj: {**obj, "task": "compat-manifest"}),
        ("manifest.json", lambda obj: {**obj, "task": 3}),
    ], ids=["manifest-not-json", "manifest-no-files", "manifest-no-n", "splits-string-id",
            "splits-not-a-list", "sets-not-json", "sets-float-id", "manifest-m-not-width",
            "manifest-m-null", "manifest-m-float", "manifest-no-m", "manifest-unknown-task",
            "manifest-task-not-a-string"])
    def test_malformed_bundle_metadata_names_the_file(self, bundle_dir, trained_dir, tmp_path,
                                                      capsys, name, edit):
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        path = broken / name
        text = edit(json.loads(path.read_text()))
        path.write_text(text if isinstance(text, str) else json.dumps(text))
        if name != "manifest.json":
            manifest = json.loads((broken / "manifest.json").read_text())
            manifest["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
            (broken / "manifest.json").write_text(json.dumps(manifest))
        assert self._eval(broken, trained_dir / "checkpoint.json", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("relevance", "maybe"), ("randomize_labels", "no"), ("seed", 1.7), ("epochs", 1.5),
        ("lambda_", "0.5"), ("epochs", 2.0), ("choices", 3.0),
    ])
    def test_bad_config_value_is_usage_error(self, bundle_dir, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "x"
        code = run_cli_expect_usage_exit(
            "--config", cfg, "train", "--bundle", bundle_dir, "--out", out, "--epochs", 1
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--query-split", "--gallery-split"])
    def test_unknown_recall_split_exits_one(self, bundle_dir, trained_dir, tmp_path, capsys,
                                            flag):
        assert run_cli(
            "eval", "--checkpoint", trained_dir / "checkpoint.json", "--bundle", bundle_dir,
            "--task", "recall", "--out", tmp_path / "out", flag, "nope",
        ) == 1
        assert "no split 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["attr-map", "rank-report"])
    def test_pan_only_task_on_baseline_checkpoint_exits_one(self, bundle_dir, trained_dir,
                                                            tmp_path, capsys, task):
        siamese = tmp_path / "siamese"
        assert run_cli("train", "--bundle", bundle_dir, "--out", siamese,
                       "--epochs", 2, "--seed", 1, "--baseline", "siamese") == 0
        capsys.readouterr()
        ckpt = siamese / "checkpoint.json"
        checkpoints = [ckpt] if task == "attr-map" else [trained_dir / "checkpoint.json", ckpt]
        assert run_cli("eval", "--checkpoint", *checkpoints, "--bundle", bundle_dir,
                       "--task", task, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and task in err and "Traceback" not in err

    def test_auc_without_categories_exits_one(self, bundle_dir, trained_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        (broken / "categories.csv").unlink()
        manifest = json.loads((broken / "manifest.json").read_text())
        del manifest["files"]["categories.csv"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", broken, "--task", "auc", "--out", out) == 1
        assert "auc needs item categories" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["gradcheck", "--dims", "d6"], "--dims"),
        (["gradcheck", "--dims", "d=6,M=0"], "--dims"),
        (["train", "--encoder", "mlp", "--mlp-dims", "24,x"], "--mlp-dims"),
        (["train", "--encoder", "mlp", "--mlp-dims", "0"], "--mlp-dims"),
        (["--config", "CONFIG", "train", "--encoder", "mlp"], "--mlp-dims"),
        (["train", "--mlp-dims", "24,x"], "--mlp-dims"),
    ], ids=["dims-no-equals", "dims-zero", "mlp-dims-not-integer", "mlp-dims-zero",
            "config-mlp-dims-not-integer", "mlp-dims-identity-encoder"])
    def test_malformed_layer_list_is_usage_error(self, bundle_dir, tmp_path, capsys, argv, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mlp_dims": "24,x"}))
        out = tmp_path / "x"
        argv = [cfg if a == "CONFIG" else a for a in argv]
        if "train" in argv:
            argv += ["--bundle", bundle_dir, "--out", out, "--epochs", 1]
        assert run_cli_expect_usage_exit(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_config_layer_list_matches_the_flag(self, bundle_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mlp_dims": "24,16"}))
        common = ["--bundle", bundle_dir, "--encoder", "mlp", "--epochs", 2, "--seed", 1]
        assert run_cli("--config", cfg, "train", *common, "--out", tmp_path / "a") == 0
        assert run_cli("train", *common, "--mlp-dims", "24,16", "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "run.json").read_bytes() == (
            tmp_path / "b" / "run.json").read_bytes()

    def test_unknown_fewshot_split_fails_before_run_json(self, bundle_dir, trained_dir,
                                                         tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", bundle_dir, "--task", "fewshot", "--split", "nope",
                       "--out", out) == 1
        assert "no split 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_fewshot_without_enough_large_classes_fails_before_run_json(
            self, bundle_dir, trained_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", bundle_dir, "--task", "fewshot", "--out", out) == 1
        assert "need 5 classes with >= 21 items in 'test'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--task", "recall", "--k", 5000], "k must be in [1, 91), got 5000"),
        (["--task", "recall", "--k", 16, "--gallery-split", "test"],
         "k must be in [1, 16), got 16"),
        (["--task", "attr-map", "--max-pairs", 1],
         "no attribute had both positive and negative labelled pairs"),
    ], ids=["recall-k-above-gallery", "recall-k-above-half-split", "attr-map-one-sided-pairs"])
    def test_task_the_bundle_cannot_feed_fails_before_run_json(
            self, bundle_dir, trained_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", bundle_dir, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_fewshot_without_categories_fails_before_run_json(self, bundle_dir, trained_dir,
                                                              tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(bundle_dir, broken)
        (broken / "categories.csv").unlink()
        manifest = json.loads((broken / "manifest.json").read_text())
        del manifest["files"]["categories.csv"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert run_cli("eval", "--checkpoint", trained_dir / "checkpoint.json",
                       "--bundle", broken, "--task", "fewshot", "--out", out) == 1
        assert "fewshot needs item categories" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sweep_split_writes_nothing(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--axis", "lambda", "--values", "0,1", "--bundle", bundle_dir,
            "--out", out, "--epochs", 2, "--eval-split", "nope",
        ) == 1
        assert "no split 'nope'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sweep_split_fails_before_training(self, bundle_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_cli(
            "sweep", "--axis", "lambda", "--values", "0", "--bundle", bundle_dir,
            "--out", out, "--epochs", 2, "--eval-split", "nope",
        ) == 1
        assert "no split 'nope'" in capsys.readouterr().err
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("argv,config,flag", [
        (["gradcheck", "--dims", "d=6,M=4,q=9"], None, "--dims"),
        (["gradcheck"], {"dims": "d=6,M=4,q=9"}, "--dims"),
        (["gradcheck", "--seeds", "0"], None, "--seeds"),
        (["gradcheck"], {"seeds": 0}, "--seeds"),
        (["eval", "--task", "attr-map", "--max-pairs", "-1"], None, "--max-pairs"),
        (["eval", "--task", "attr-map"], {"max_pairs": -1}, "--max-pairs"),
        (["sweep", "--axis", "lambda", "--values", "0,0", "--runs", "1"], None, "--values"),
        (["sweep", "--axis", "lambda", "--values", "0"], {"values": "0,1,0"}, "--values"),
        (["sweep", "--axis", "fa", "--values", " , "], None, "--values"),
        (["sweep", "--axis", "fa", "--values", "or"], {"values": ","}, "--values"),
        (["sweep", "--axis", "conditions", "--values", "2.5,3"], None, "--conditions"),
        (["sweep", "--axis", "fa", "--values", "or,nope"], None, "--fa"),
        (["sweep", "--axis", "lambda", "--values", "0,x"], None, "--lambda"),
    ], ids=["dims-unknown-key", "config-dims-unknown-key", "seeds-zero", "config-seeds-zero",
            "max-pairs-negative", "config-max-pairs-negative", "values-repeated",
            "config-values-repeated", "values-empty", "config-values-empty",
            "values-not-conditions", "values-not-fa", "values-not-lambda"])
    def test_value_no_run_can_use_is_usage_error(self, bundle_dir, trained_dir, tmp_path,
                                                 capsys, argv, config, flag):
        out = tmp_path / "out"
        if argv[0] == "eval":
            argv += ["--checkpoint", trained_dir / "checkpoint.json", "--bundle", bundle_dir,
                     "--out", out]
        if argv[0] == "sweep":
            argv += ["--bundle", bundle_dir, "--out", out, "--epochs", 1]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", cfg, *argv]
        assert run_cli_expect_usage_exit(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command,flag,value", [
        ("gradcheck", "--tolerance", float("nan")),
        ("gradcheck", "--tolerance", float("inf")),
        ("gradcheck", "--tolerance", 0.0),
        ("gradcheck", "--tolerance", -1.0),
        ("eval", "--choices", 1),
        ("eval", "--choices", 0),
        ("sweep", "--jobs", 0),
        ("sweep", "--jobs", -2),
        ("train", "--margin", -1.0),
        ("train", "--margin", float("nan")),
    ], ids=["tolerance-nan", "tolerance-inf", "tolerance-zero", "tolerance-negative",
            "choices-one", "choices-zero", "jobs-zero", "jobs-negative",
            "margin-negative", "margin-nan"])
    def test_out_of_range_value_is_usage_error(self, bundle_dir, trained_dir, tmp_path,
                                               capsys, command, flag, value, source):
        out = tmp_path / "out"
        argv = {
            # without the check, a nan or infinite tolerance passes negated gradients
            "gradcheck": ["gradcheck", "--seeds", 1, "--negate-analytic"],
            "eval": ["eval", "--checkpoint", trained_dir / "checkpoint.json",
                     "--bundle", bundle_dir, "--task", "fitb", "--out", out],
            "sweep": ["sweep", "--axis", "lambda", "--values", "0", "--bundle", bundle_dir,
                      "--out", out, "--epochs", 1],
            # without the check, run.json is written before the trainer rejects the margin
            "train": ["train", "--bundle", bundle_dir, "--out", out, "--baseline", "siamese",
                      "--epochs", 1],
        }[command]
        if source == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))  # nan and inf as JSON NaN, Infinity
            argv = ["--config", cfg, *argv]
        assert run_cli_expect_usage_exit(*argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--noise", "nan"], "noise_sd"),
        (["--noise", "inf"], "noise_sd"),
        (["--separation", "nan"], "cluster_separation"),
        (["--hamming", -1], "hamming_threshold"),
        (["--task", "fewshot-clusters", "--items", 10, "--classes", 20], "n_items"),
        (["--task", "compat-manifest", "--attrs", 6, "--manifestations", 6],
         "manifestation_count"),
        (["--attrs", 33], "m_attributes"),
        (["--task", "fewshot-clusters", "--classes", 33], "n_classes"),
        (["--task", "fewshot-clusters", "--classes", 2], "n_classes"),
    ], ids=["noise-nan", "noise-inf", "separation-nan", "hamming-negative",
            "fewshot-items-below-classes", "compat-directions-above-dim",
            "linear-attrs-above-dim", "fewshot-classes-above-dim", "fewshot-two-classes"])
    def test_out_of_range_spec_exits_one(self, tmp_path, capsys, flags, field):
        out = tmp_path / "out"
        argv = ["gen", "--task", "linear-separable", "--items", 60, "--dim", 32, "--out", out]
        assert run_cli(*argv, *flags) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,field", [
        (["--lambda", "nan"], "lambda_"),
        (["--lambda", "inf"], "lambda_"),
        (["--lr", "nan"], "learning_rate"),
        (["--lr", "inf"], "learning_rate"),
        (["--lr", 0], "learning_rate"),
        (["--encoder", "gcn", "--gcn-hidden", 0], "hidden_dim"),
    ], ids=["lambda-nan", "lambda-inf", "lr-nan", "lr-inf", "lr-zero", "gcn-hidden-zero"])
    def test_out_of_range_train_setting_exits_one(self, bundle_dir, tmp_path, capsys,
                                                  flags, field):
        out = tmp_path / "out"
        assert run_cli("train", "--bundle", bundle_dir, "--out", out, "--epochs", 1,
                       *flags) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("config", [False, True], ids=["flag", "config"])
    def test_gradcheck_has_no_step_option(self, tmp_path, capsys, config):
        argv = ["gradcheck", "--seeds", 1, "--step", "1e-5"]
        if config:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"step": 1e-5}))
            argv = ["--config", cfg, *argv[:-2]]
        assert run_cli_expect_usage_exit(*argv) == 2
        assert "step" in capsys.readouterr().err
