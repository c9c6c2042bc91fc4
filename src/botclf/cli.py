"""Command-line front end: summary | train | eval | predict | gradcheck.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure (including a failed gradient check).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from itertools import islice

import numpy as np

from . import dataio, metrics, network, training
from .config import RunConfig, load_features_config, resolve
from .dataio import CsvSchema, FeatureSpec, DEFAULT_LABEL_MAP
from .errors import ConfigError, DataError, NumericError
from .network import Architecture
from .numerics import resolve_dtype

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

log = logging.getLogger("botclf")


def _architecture(cfg: RunConfig) -> Architecture:
    return Architecture(gru_units=cfg.gru_units, filters=cfg.filters)


def _io_setup(cfg: RunConfig):
    if cfg.features:
        return load_features_config(cfg.features)
    return FeatureSpec(), CsvSchema(), DEFAULT_LABEL_MAP


def _require_data(cfg: RunConfig) -> str:
    if not cfg.data:
        raise ConfigError("this command needs --data PATH (or data= in the config file)")
    return cfg.data


def cmd_summary(cfg: RunConfig) -> int:
    params = network.build(cfg.seed, _architecture(cfg), dtype=resolve_dtype(cfg.precision))
    print(network.summary(params).render())
    return EXIT_OK


def _norm_extras(spec: FeatureSpec) -> dict:
    return {"norm.min": spec.mins, "norm.max": spec.maxs}


def cmd_train(cfg: RunConfig) -> int:
    data_path = _require_data(cfg)
    spec, schema, label_map = _io_setup(cfg)
    fitted = dataio.fit_normalizer(
        dataio.stream_csv(data_path, schema, spec, label_map=None, policy=cfg.policy),
        spec)
    stream = dataio.stream_csv(data_path, schema, fitted, label_map, policy=cfg.policy)
    dataset = dataio.to_dataset(stream, fitted, dtype=resolve_dtype(cfg.precision))
    if dataset.labels is None:
        raise DataError(f"{data_path}: training rows must all be labeled")
    dist = dataset.class_distribution(label_map.num_classes)
    log.info("loaded %d records; class distribution %s", len(dataset), dist.tolist())

    params = network.build(cfg.seed, _architecture(cfg), dtype=resolve_dtype(cfg.precision))
    train_cfg = training.TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size, learning_rate=cfg.learning_rate,
        validation_fraction=cfg.validation_fraction, seed=cfg.seed,
        stratified=cfg.stratified)

    stats_path = cfg.report or (cfg.weights + ".stats")
    lines = []

    def sink(stats):
        print(stats.line())
        lines.append(stats.line())

    training.fit(params, dataset, train_cfg, progress_sink=sink)
    with open(stats_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    meta = {"feature_names": ",".join(fitted.names),
            "class_names": ",".join(label_map.names),
            "class_pairs": ";".join(f"{c},{s}" for c, s in label_map.pairs)}
    network.save_weights(params, cfg.weights, extras=_norm_extras(fitted), meta=meta)
    log.info("wrote weights to %s and epoch stats to %s", cfg.weights, stats_path)
    return EXIT_OK


def _load_bundle(cfg: RunConfig):
    """Weights plus the persisted normalizer and label names."""
    tensors, meta = network.load_manifest(cfg.weights)
    params = network.params_from_manifest(tensors, meta)
    spec, schema, label_map = _io_setup(cfg)
    if "feature_names" in meta:
        spec = FeatureSpec(names=tuple(meta["feature_names"].split(",")))
    if "norm.min" in tensors and "norm.max" in tensors:
        spec = replace(spec, mins=tensors["norm.min"], maxs=tensors["norm.max"])
    if "class_pairs" in meta and "class_names" in meta:
        pairs = tuple(tuple(entry.split(",", 1)) for entry in meta["class_pairs"].split(";"))
        label_map = dataio.LabelMap(pairs=pairs, names=tuple(meta["class_names"].split(",")))
    return params, spec, schema, label_map


def cmd_eval(cfg: RunConfig) -> int:
    data_path = _require_data(cfg)
    params, spec, schema, label_map = _load_bundle(cfg)
    if not spec.fitted:
        raise DataError(f"{cfg.weights}: manifest has no normalizer state; "
                        "was it written by `botclf train`?")
    stream = dataio.stream_csv(data_path, schema, spec, label_map, policy=cfg.policy)
    dataset = dataio.to_dataset(stream, spec, dtype=params.dtype)
    if dataset.labels is None:
        raise DataError(f"{data_path}: evaluation rows must all be labeled")
    cm, loss = training.evaluate(params, dataset)
    rep = metrics.report(cm)
    print(rep.render_overall())
    print(f"Mean loss      {loss:.6f}")
    print()
    print(rep.render_class_table())
    if cfg.report:
        with open(cfg.report, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json() + "\n")
        log.info("wrote metrics report to %s", cfg.report)
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    data_path = _require_data(cfg)
    params, spec, schema, label_map = _load_bundle(cfg)
    if not spec.fitted:
        raise DataError(f"{cfg.weights}: manifest has no normalizer state; "
                        "was it written by `botclf train`?")
    stream = dataio.stream_csv(data_path, schema, spec, label_map=None, policy=cfg.policy)
    classes = params.arch.classes
    names = [label_map.names[i] if i < len(label_map.names) else str(i)
             for i in range(classes)]
    line = "%d,%s," + ",".join(["%.9f"] * classes) + "\n"
    out = open(cfg.report, "w", encoding="utf-8") if cfg.report else sys.stdout
    try:
        records = iter(stream)
        while chunk := list(islice(records, network.INFER_CHUNK)):
            x = spec.normalize(np.array([rec.features for rec in chunk]))
            probs = network.predict_proba(params, x[:, :, None])
            out.write("".join([line % (idx, names[idx], *row) for idx, row
                               in zip(probs.argmax(axis=1).tolist(), probs.tolist())]))
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    params = network.build(cfg.seed, _architecture(cfg))  # double precision required
    report = training.gradient_check(params, probes=cfg.probes,
                                     tolerance=cfg.tolerance, seed=cfg.seed)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botclf",
        description="Train, evaluate and run a GRU+CNN network-flow attack classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--data", help="input CSV path")
    common.add_argument("--weights", help="weight manifest path")
    common.add_argument("--report", help="report / stats output path")
    common.add_argument("--features", help="features config file (columns, label map)")
    common.add_argument("--seed", type=int)
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", type=int, dest="batch_size")
    common.add_argument("--learning-rate", type=float, dest="learning_rate")
    common.add_argument("--precision", choices=("double", "single"))
    common.add_argument("--policy", choices=("skip", "fail"),
                        help="malformed CSV row handling")
    common.add_argument("--stratified", action="store_true", default=None,
                        help="stratify the train/validation split by class")
    common.add_argument("--gru-units", type=int, dest="gru_units")
    common.add_argument("--filters", type=int)
    common.add_argument("--probes", type=int, help="gradient-check probe count")
    common.add_argument("--tolerance", type=float, help="gradient-check tolerance")
    common.add_argument("--verbose", "-v", action="store_true", default=None)

    sub.add_parser("summary", parents=[common],
                   help="print the layer table and parameter totals")
    sub.add_parser("train", parents=[common], help="train on a labeled flow CSV")
    sub.add_parser("eval", parents=[common],
                   help="evaluate weights against a labeled flow CSV")
    sub.add_parser("predict", parents=[common],
                   help="classify an unlabeled flow CSV")
    sub.add_parser("gradcheck", parents=[common],
                   help="verify backprop against finite differences")
    return parser


_COMMANDS = {
    "summary": cmd_summary,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cli_values = {k: v for k, v in vars(args).items()
                  if k not in ("command", "config")}
    try:
        cfg = resolve(cli_values, config_path=args.config)
        logging.basicConfig(level=logging.DEBUG if cfg.verbose else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"botclf: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"botclf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"botclf: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"botclf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
