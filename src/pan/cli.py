"""Command-line entry point: gen | train | eval | gradcheck | sweep.

Every command is a pure function of (input files, flags, seed) to output
files; re-running with identical inputs reproduces every artifact byte for
byte. Exit codes: 0 success, 1 runtime or assertion failure, 2 usage error.
The fully resolved configuration is echoed to ``run.json`` in the output
directory before any work starts. ``PAN_SEED`` is the default text of ``--seed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import csm as csm_mod
from . import data as data_mod
from . import evaluation as ev
from . import training as tr
from .attributes import FA_CHOICES, label_dimension, randomize_labels
from .encoders import ACTIVATIONS, ENCODER_KINDS, EncoderSpec
from .errors import (
    BundleFormatError,
    ContractError,
    DimensionError,
    GenerationError,
    NumericError,
    SamplingError,
    check_range,
)
from .rng import derive_seed
from .training import gradcheck_composition

PAN_ERRORS = (
    BundleFormatError, ContractError, DimensionError,
    GenerationError, NumericError, SamplingError, IndexError,
)

GEN_TASKS = {
    "compat-manifest": "compatibility_manifestation",
    "fewshot-clusters": "fewshot_clusters",
    "linear-separable": "linear_separable",
}
FA_FLAGS = {fa.replace("_", "-"): fa for fa in FA_CHOICES}  # flag text -> combination


def _config_fingerprint(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_run_manifest(out_dir: Path, command: str, config: dict) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "fingerprint": _config_fingerprint(config),
    }
    tr.write_json(out_dir / "run.json", manifest)
    return manifest


def _write_metric_files(out_dir: Path, report: ev.MetricReport, fingerprint: str) -> None:
    payload = report.to_dict()
    payload["config_fingerprint"] = fingerprint
    tr.write_json(out_dir / "metrics.json", payload)
    low, high = report.interval or (None, None)
    tr.write_csv(
        out_dir / "metrics.csv",
        ("metric", "value", "interval_low", "interval_high", "count", "config_fingerprint"),
        [(report.name, float(report.value), low, high, report.count, fingerprint)],
    )


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _add_gen_parser(sub) -> None:
    p = sub.add_parser("gen", help="generate a synthetic dataset bundle")
    p.add_argument("--task", choices=sorted(GEN_TASKS), required=True)
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--items", type=int, default=500)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--attrs", type=int, default=6)
    p.add_argument("--seed", type=int, default=os.environ.get("PAN_SEED", "0"))
    p.add_argument("--noise", type=float, default=0.2)
    p.add_argument("--manifestations", type=int, default=2)
    p.add_argument("--density", type=float, default=0.8)
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--separation", type=float, default=10.0)
    p.add_argument("--hamming", type=int, default=1)


def _cmd_gen(args) -> int:
    spec = data_mod.SyntheticSpec(
        n_items=args.items,
        d=args.dim,
        m_attributes=args.attrs,
        noise_sd=args.noise,
        task_kind=GEN_TASKS[args.task],
        manifestation_count=args.manifestations,
        attr_density=args.density,
        n_classes=args.classes,
        cluster_separation=args.separation,
        hamming_threshold=args.hamming,
    )
    out_dir = Path(args.out)
    config = {"task": args.task, "seed": args.seed, **spec.__dict__}
    _write_run_manifest(out_dir, "gen", config)
    bundle, report = data_mod.generate(spec, args.seed)
    data_mod.save_bundle(out_dir, bundle)
    tr.write_json(out_dir / "oracle_report.json", report)
    print(f"wrote bundle with {bundle.n} items, {bundle.graph.num_edges} edges to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _add_train_flags(p) -> None:
    p.add_argument("--encoder", choices=ENCODER_KINDS, default="identity")
    p.add_argument("--mlp-dims", type=_positive_ints, default="24,16",
                   help="comma-separated MLP layer dims")
    p.add_argument("--activation", choices=ACTIVATIONS, default="relu")
    p.add_argument("--gcn-layers", type=int, default=2)
    p.add_argument("--gcn-hidden", type=int, default=16)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--edge-dropout", type=float, default=0.15)
    p.add_argument("--conditions", type=int, default=None,
                   help="condition count M; defaults to the attribute label dimension")
    p.add_argument("--supervision", choices=("auto", *csm_mod.SUPERVISION_MODES), default="auto")
    p.add_argument("--relevance", choices=("on", "off"), default="on")
    p.add_argument("--fa", choices=sorted(FA_FLAGS), default="or")
    p.add_argument("--lambda", dest="lambda_", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.03)
    p.add_argument("--epochs", type=int, default=1200)
    p.add_argument("--mode", choices=tuple(m.replace("_", "-") for m in tr.TRAIN_MODES),
                   default="single-batch")
    p.add_argument("--batch-size", type=int, default=96)
    p.add_argument("--val-every", type=int, default=100)
    p.add_argument("--pairs-per-epoch", type=int, default=4096)
    p.add_argument("--seed", type=int, default=os.environ.get("PAN_SEED", "0"))
    p.add_argument("--randomize-labels", action="store_true",
                   help="sanity check: replace labelled attributes with coin flips")
    p.add_argument("--baseline", choices=("none", *tr.BASELINES), default="none")
    p.add_argument("--margin", type=_in_range(float, 0), default=0.2,
                   help="triplet margin (siamese)")


def _add_train_parser(sub) -> None:
    p = sub.add_parser("train", help="train a model on a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    _add_train_flags(p)


def _in_range(kind, low, *, above: bool = False):
    """An argparse ``type``: ``kind(text)`` in ``errors.check_range``'s range
    from ``low`` up. Any other value, on the command line or in ``--config``,
    is a usage error naming the flag."""

    def parse(text):
        try:
            return check_range("value", kind(text), low, above=above)
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _positive_int(text: str) -> int:
    """``text`` as an integer >= 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text.strip()!r}")
    return int(text)


def _positive_ints(text: str) -> tuple[int, ...]:
    """An argparse ``type``: comma-separated integers >= 1."""
    return tuple(_positive_int(x) for x in text.split(",") if x.strip())


def _encoder_spec_from_args(args) -> EncoderSpec:
    if args.encoder == "identity":
        return EncoderSpec(kind="identity")
    if args.encoder == "mlp":
        return EncoderSpec(kind="mlp", layer_dims=args.mlp_dims, activation=args.activation)
    return EncoderSpec(
        kind="gcn",
        num_layers=args.gcn_layers,
        hidden_dim=args.gcn_hidden,
        activation=args.activation,
        layer_dropout_p=args.dropout,
        edge_dropout_p=args.edge_dropout,
    )


def _resolve_model_config(args, bundle) -> tuple[EncoderSpec, csm_mod.CsmConfig, str]:
    fa = FA_FLAGS[args.fa]
    supervision = args.supervision
    if supervision == "auto":
        supervision = "supervised" if bundle.attributes is not None else "unsupervised"
    if supervision in ("supervised", "hybrid") and bundle.attributes is None:
        raise ContractError(f"{supervision} training requires a bundle with attributes")
    label_dim = 0 if supervision == "unsupervised" else label_dimension(bundle.attributes.m, fa)
    default_m = {"unsupervised": 16, "supervised": label_dim, "hybrid": 2 * label_dim}
    m = args.conditions if args.conditions is not None else default_m[supervision]
    hybrid = supervision == "hybrid"
    cfg = csm_mod.CsmConfig(m=m, supervision=supervision, m_sup=label_dim if hybrid else 0,
                            m_unsup=m - label_dim if hybrid else 0,
                            relevance_enabled=args.relevance == "on")
    return _encoder_spec_from_args(args), cfg, fa


def _train_config_from_args(args, seed: int, fa: str) -> tr.TrainConfig:
    return tr.TrainConfig(
        lambda_=args.lambda_,
        learning_rate=args.lr,
        epochs=args.epochs,
        mode=args.mode.replace("-", "_"),
        batch_size=args.batch_size,
        seed=seed,
        fa=fa,
        validation_every=args.val_every,
        pairs_per_epoch=args.pairs_per_epoch,
    )


def _train_once(args, bundle, out_dir: Path, seed: int) -> tuple:
    """Shared by cmd_train and sweep workers; returns the model and its summary facts."""
    encoder_spec, csm_config, fa = _resolve_model_config(args, bundle)
    config = _train_config_from_args(args, seed, fa)
    resolved = {
        "baseline": args.baseline,
        "bundle": str(args.bundle),
        "encoder": tr.spec_to_dict(encoder_spec),
        "csm": asdict(csm_config),
        "train": asdict(config),
        "randomize_labels": bool(args.randomize_labels),
        "margin": args.margin,
    }
    manifest = _write_run_manifest(out_dir, "train", resolved)

    table = bundle.attributes
    if args.randomize_labels:
        if table is None:
            raise ContractError("--randomize-labels needs a bundle with attributes")
        table = randomize_labels(table, derive_seed(seed, "randomize-labels"))

    if args.baseline == "none":
        result = tr.train_pan(bundle, encoder_spec, csm_config, config, attribute_table=table)
        model = result.model
        tr.write_history_csv(out_dir / "history.csv", result.history)
        # the manifest was echoed before work started; rewrite it with the
        # metric history now that training is done
        manifest["history"] = [
            [row.epoch, row.train_loss, row.val_metric] for row in result.history
        ]
        tr.write_json(out_dir / "run.json", manifest)
        summary = {
            "best_epoch": result.best_epoch,
            "best_val_metric": result.best_metric,
            "final_train_loss": result.history[-1].train_loss if result.history else None,
        }
    else:
        model = _train_baseline(args, bundle, config, table)
        summary = {"baseline": args.baseline}
    tr.save_checkpoint(out_dir / "checkpoint.json", model)
    tr.write_json(out_dir / "summary.json", summary)
    return model, summary


def _train_baseline(args, bundle, config: tr.TrainConfig, table):
    if args.baseline == "siamese":
        return tr.train_siamese_baseline(bundle, args.margin, config)
    if args.baseline == "multitask":
        return tr.train_multitask_baseline(bundle, config, attribute_table=table)
    return tr.train_attr_similarity_baseline(bundle, config, attribute_table=table)


def _cmd_train(args) -> int:
    bundle = data_mod.load_bundle(args.bundle)
    _, summary = _train_once(args, bundle, Path(args.out), args.seed)
    print(f"trained ({args.baseline}) -> {args.out}  {summary}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _add_eval_parser(sub) -> None:
    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p.add_argument("--checkpoint", nargs="+", required=True,
                   help="checkpoint file(s); several only for a task that compares runs")
    p.add_argument("--bundle", required=True)
    p.add_argument("--task", choices=ev.TASKS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default=None, help="evaluation split (default test/novel)")
    p.add_argument("--choices", type=_in_range(int, 2), default=10,
                   help="candidates per fill-in-the-blank question")
    p.add_argument("--way", type=_in_range(int, 1), default=5)
    p.add_argument("--shot", type=_in_range(int, 1), default=5)
    p.add_argument("--query", type=_in_range(int, 1), default=16)
    p.add_argument("--episodes", type=_in_range(int, 1), default=600)
    p.add_argument("--k", type=_in_range(int, 1), default=1)
    p.add_argument("--query-split", default="test")
    p.add_argument("--gallery-split", default="train")
    p.add_argument("--fa", choices=sorted(FA_FLAGS), default="or")
    p.add_argument("--max-pairs", type=_in_range(int, 1), default=20000)
    p.add_argument("--seed", type=int, default=os.environ.get("PAN_SEED", "0"))


EVAL_OPTIONS = ("choices", "way", "shot", "query", "episodes", "k", "query_split",
                "gallery_split", "fa", "max_pairs")


def _cmd_eval(args) -> int:
    bundle = data_mod.load_bundle(args.bundle)
    options = {name: getattr(args, name) for name in EVAL_OPTIONS}
    task_options = options | {"fa": FA_FLAGS[args.fa]}
    split = ev.check_task(args.task, bundle, len(args.checkpoint), args.split, args.seed,
                          **task_options)
    out_dir = Path(args.out)
    config = {
        "task": args.task, "checkpoints": [str(c) for c in args.checkpoint],
        "bundle": str(args.bundle), "seed": args.seed, "split": args.split, **options,
    }
    fingerprint = _write_run_manifest(out_dir, "eval", config)["fingerprint"]
    models = [(path, tr.load_checkpoint(path)) for path in args.checkpoint]
    report, tables = ev.run_task(args.task, models, bundle, split, args.seed, **task_options)
    for name, (header, rows) in tables.items():
        tr.write_csv(out_dir / name, header, rows)
    _write_metric_files(out_dir, report, fingerprint)
    print(f"{report.name} = {report.value:.6f} (count {report.count}) -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def _add_gradcheck_parser(sub) -> None:
    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--dims", type=_dims, default="d=6,M=4", help="like d=6,M=4")
    p.add_argument("--seeds", type=_in_range(int, 1), default=100)
    p.add_argument("--tolerance", type=_in_range(float, 0, above=True), default=1e-4)
    p.add_argument("--negate-analytic", action="store_true", help=argparse.SUPPRESS)


def _dims(text: str) -> tuple[int, int]:
    """An argparse ``type``: ``d=…,M=…`` as (d, M); a key left out keeps 6 or 4."""
    out = {"d": 6, "m": 4}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in out:
            raise argparse.ArgumentTypeError(f"unknown key {key!r}, expected d and M")
        out[key] = _positive_int(value)
    return out["d"], out["m"]


def _cmd_gradcheck(args) -> int:
    d, m = args.dims
    transform = None
    if args.negate_analytic:
        def transform(store):
            return ad.GradientStore({k: -v for k, v in store.items()})

    worst, worst_where = 0.0, ("", -1, -1)
    for seed in range(args.seeds):
        loss_fn, params = gradcheck_composition(seed, d, m)
        errors = ad.finite_diff_errors(loss_fn, params, grad_transform=transform)
        for name, err in errors.items():
            flat = int(err.argmax())
            if err.flat[flat] > worst:
                worst = float(err.flat[flat])
                worst_where = (name, flat, seed)
    print(f"gradcheck: {args.seeds} seeds, worst relative error {worst:.3e} "
          f"(tolerance {args.tolerance:g})")
    if worst >= args.tolerance:
        name, flat, seed = worst_where
        print(f"FAIL at parameter {name}[{flat}] (seed {seed})", file=sys.stderr)
        return 1
    print("PASS")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

AXIS_DESTS = {"lambda": "lambda_", "conditions": "conditions", "fa": "fa"}  # set by --{axis}


def _add_sweep_parser(sub) -> None:
    p = sub.add_parser("sweep", help="train+eval across one axis of values")
    p.add_argument("--axis", choices=tuple(AXIS_DESTS), required=True)
    p.add_argument("--values", type=_axis_values, required=True,
                   help="comma-separated axis values, none repeated")
    p.add_argument("--bundle", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--runs", type=_in_range(int, 1), default=1)
    p.add_argument("--jobs", type=_in_range(int, 1), default=1,
                   help="worker processes; at most one per run and per CPU")
    p.add_argument("--eval-task", choices=("pair-acc",), default="pair-acc")
    p.add_argument("--eval-split", default=None)
    _add_train_flags(p)


def _axis_values(text: str) -> tuple[str, ...]:
    """An argparse ``type``: comma-separated values, at least one, none repeated."""
    values = tuple(v.strip() for v in text.split(",") if v.strip())
    if not values:
        raise argparse.ArgumentTypeError("must list at least one value")
    if repeated := sorted({v for v in values if values.count(v) > 1}):
        raise argparse.ArgumentTypeError(f"repeats {', '.join(map(repr, repeated))}")
    return values


def _parse_axis_values(args) -> list:
    """Each ``--values`` entry as the axis flag ``--{axis}`` parses it. A value
    that flag rejects is a usage error (exit 2) naming the flag."""
    axis = args.axis
    p = argparse.ArgumentParser(prog=f"pan sweep --axis {axis} --values", usage=argparse.SUPPRESS)
    _add_train_flags(p)
    # "--flag=text", so that a value such as -1e-5 is not read as an option; into
    # a copy of args, so that no other flag's default text is parsed again
    return [
        getattr(p.parse_args([f"--{axis}={value}"], argparse.Namespace(**vars(args))),
                AXIS_DESTS[axis])
        for value in args.values
    ]


def _sweep_one(packed) -> tuple[str, int, float | None, str | None]:
    """Worker: train with one axis value, return the evaluated metric."""
    args_dict, axis, (value, parsed), run, bundle, split, out_dir = packed
    args = argparse.Namespace(**args_dict)
    setattr(args, AXIS_DESTS[axis], parsed)
    try:
        run_dir = Path(out_dir) / "runs" / f"{axis}-{value}-run{run}"
        model, _ = _train_once(args, bundle, run_dir, derive_seed(args.seed, "sweep", value, run))
        named = [(str(run_dir / "checkpoint.json"), model)]
        report, _ = ev.run_task(args.eval_task, named, bundle, split, args.seed)
        return value, run, report.value, None
    except Exception as exc:  # noqa: BLE001 - failures are recorded, sweep continues
        return value, run, None, f"{type(exc).__name__}: {exc}"


def _cmd_sweep(args) -> int:
    parsed = _parse_axis_values(args)
    bundle = data_mod.load_bundle(args.bundle)
    split = ev.check_task(args.eval_task, bundle, 1, args.eval_split, args.seed)
    out_dir = Path(args.out)
    args_dict = {k: v for k, v in vars(args).items() if k != "func"}
    _write_run_manifest(out_dir, "sweep", args_dict)
    jobs = []
    # a run's seed and directory come from the value's text
    for text_and_value in zip(args.values, parsed):
        for run in range(args.runs):
            jobs.append((args_dict, args.axis, text_and_value, run, bundle, split,
                         str(out_dir)))
    # the pool forks all its workers at once, however few runs there are
    workers = min(args.jobs, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]

    tr.write_csv(out_dir / "sweep.csv", ("value", "run", "metric"),
                 [(value, run, metric) for value, run, metric, _ in results])
    summary = []
    for value in args.values:
        metrics = [metric for v, _, metric, _ in results if v == value and metric is not None]
        if not metrics:
            summary.append((value, None, None, 0))
            continue
        half = ev.half_width_95(metrics) if len(metrics) > 1 else 0.0
        summary.append((value, float(np.mean(metrics)), half, len(metrics)))
    tr.write_csv(out_dir / "summary.csv", ("value", "mean", "half_width_95", "runs"), summary)

    failures = [(value, run, error) for value, run, metric, error in results if metric is None]

    for value, run, error in failures:
        print(f"run failed: {args.axis}={value} run={run}: {error}", file=sys.stderr)
    print(f"sweep over {args.axis} complete: {len(results) - len(failures)}/{len(results)} runs ok")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pan",
        description="pairwise attribute-informed similarity: generate, train, evaluate",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file of snake_case defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_parser(sub)
    _add_train_parser(sub)
    _add_eval_parser(sub)
    _add_gradcheck_parser(sub)
    _add_sweep_parser(sub)
    # kept for --config default injection: subparser defaults would otherwise
    # shadow set_defaults() on the top-level parser
    parser._pan_subparsers = sub.choices  # noqa: SLF001
    return parser


def _config_value(action: argparse.Action, value):
    """What the flag parses from a config value's text, or None if no flag text
    gives that value: a switch takes a JSON boolean; a number must parse back to
    itself (an integer also for a float flag, so 3.0 is no value of an integer
    flag); any other flag takes a string. The result must be one of ``choices``."""
    if action.nargs == 0:  # store_true
        return value if isinstance(value, bool) else None
    number = type(value) in (int, float)
    if not (number or type(value) is str):
        return None
    try:
        parsed = (action.type or str)(str(value))
    except (ValueError, argparse.ArgumentTypeError):
        return None
    fits = parsed == value if number else type(parsed) not in (int, float)
    return parsed if fits and (action.choices is None or parsed in action.choices) else None


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load --config JSON into parser defaults, parsed by each flag; explicit flags still win."""
    if "--config" not in argv:
        return argv
    pos = argv.index("--config")
    if pos + 1 >= len(argv):
        parser.error("--config needs a path")
    path = Path(argv[pos + 1])
    if not path.exists():
        parser.error(f"config file {path} does not exist")
    try:
        defaults = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        parser.error(f"config file {path}: {exc}")
    if not isinstance(defaults, dict):
        parser.error(f"config file {path} must hold a JSON object")
    parsers = [parser, *parser._pan_subparsers.values()]  # noqa: SLF001
    actions = [action for p in parsers for action in p._actions]  # noqa: SLF001
    if unknown := sorted(set(defaults) - {action.dest for action in actions}):
        parser.error(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    for key, value in defaults.items():
        flags = [a for a in actions if a.dest == key]
        parsed = [v for a in flags if (v := _config_value(a, value)) is not None]
        if not parsed:
            names = "/".join(sorted({a.option_strings[0] for a in flags if a.option_strings}))
            parser.error(f"config file {path}: key {key}: no flag ({names}) takes the value "
                         f"{value!r}")
        defaults[key] = parsed[0]
    if required := sorted({(a.dest, "/".join(a.option_strings) or a.dest)
                           for a in actions if a.required and a.dest in defaults}):
        parser.error(f"config file {path}: key(s) {', '.join(k for k, _ in required)} set "
                     f"required flags ({', '.join(f for _, f in required)}), which come from "
                     "the command line only")
    for p in parsers:
        p.set_defaults(**defaults)
    return argv[:pos] + argv[pos + 2 :]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "train": _cmd_train,
        "eval": _cmd_eval,
        "gradcheck": _cmd_gradcheck,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except PAN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
