"""Command-line front end: summary | train | eval | predict | gradcheck.

Exit codes: 0 success (also when the reader of the output closes it
early, as `botclf predict ... | head` does), 2 configuration error, 3 data
error, 4 numeric failure (including a failed gradient check).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import nullcontext
from dataclasses import fields

import numpy as np

from . import dataio, metrics, network, training
from .config import RunConfig, load_features_config, resolve
from .dataio import CsvSchema, FeatureSpec, LabelMap, DEFAULT_LABEL_MAP
from .errors import ConfigError, DataError, NumericError
from .fileio import atomic_write, require_output_path
from .network import Architecture
from .numerics import PRECISIONS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

log = logging.getLogger("botclf")


def _io_setup(cfg: RunConfig):
    if cfg.features:
        return load_features_config(cfg.features)
    return FeatureSpec(), CsvSchema(), DEFAULT_LABEL_MAP


def _architecture(cfg: RunConfig, spec: FeatureSpec, label_map: LabelMap) -> Architecture:
    """The model for the features config: one input step per feature column
    and one output per class."""
    return Architecture(seq_len=len(spec.names), classes=label_map.num_classes,
                        gru_units=cfg.gru_units, filters=cfg.filters)


def _require_data(cfg: RunConfig) -> str:
    if not cfg.data:
        raise ConfigError("this command needs --data PATH (or data= in the config file)")
    return cfg.data


def _scoring_setup(cfg: RunConfig, labeled: bool):
    """The front half of eval (`labeled`) and predict: (params, fitted spec,
    label map, unread CSV stream), failing fast in this order on the data
    path, the report path, the features config, then the weights bundle."""
    data_path = _require_data(cfg)
    if cfg.report:
        require_output_path(cfg.report)
    spec, schema, label_map = _io_setup(cfg)
    params, spec, label_map = network.load_bundle(cfg.weights, spec, label_map)
    stream = dataio.stream_csv(data_path, schema, spec, label_map if labeled else None,
                               policy=cfg.policy)
    return params, spec, label_map, stream


def cmd_summary(cfg: RunConfig) -> int:
    spec, _, label_map = _io_setup(cfg)
    print(network.summary(_architecture(cfg, spec, label_map)).render())
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    spec, schema, label_map = _io_setup(cfg)
    arch = _architecture(cfg, spec, label_map)
    train_cfg = training.TrainConfig(**{f.name: getattr(cfg, f.name)
                                        for f in fields(training.TrainConfig)})
    data_path = _require_data(cfg)
    stats_path = cfg.report or (cfg.weights + ".stats")
    require_output_path(cfg.weights)
    require_output_path(stats_path)
    # one labeled pass: the normalizer is fitted on exactly the rows trained on
    chunks = list(dataio.stream_csv(data_path, schema, spec, label_map,
                                    policy=cfg.policy).chunks())
    dtype = PRECISIONS[cfg.precision]
    fitted = dataio.fit_normalizer(chunks, spec)
    dataset = dataio.to_dataset(chunks, fitted, dtype=dtype)
    del chunks  # the raw rows; training reads only the dataset's normalized copy
    dist = np.bincount(dataset.labels, minlength=label_map.num_classes)
    log.info("loaded %d records; class distribution %s", len(dataset), dist.tolist())

    params = network.build(cfg.seed, arch, dtype=dtype)

    history = training.fit(params, dataset, train_cfg,
                           progress_sink=lambda stats: print(stats.line()))
    with atomic_write(stats_path) as fh:
        fh.write("\n".join(stats.line() for stats in history) + "\n")
    network.save_weights(params, cfg.weights, fitted, label_map)
    log.info("wrote weights to %s and epoch stats to %s", cfg.weights, stats_path)
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    params, spec, _, stream = _scoring_setup(cfg, labeled=True)
    cm, loss = training.evaluate(params, ((spec.normalize(features), labels)
                                          for features, labels in stream.chunks()))
    rep = metrics.report(cm)
    print(rep.render_overall())
    print(f"Mean loss      {loss:.6f}")
    print()
    print(rep.render_class_table())
    if cfg.report:
        with atomic_write(cfg.report) as fh:
            fh.write(rep.to_json() + "\n")
        log.info("wrote metrics report to %s", cfg.report)
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    params, spec, label_map, stream = _scoring_setup(cfg, labeled=False)
    names = label_map.names
    line = "%d,%s," + ",".join(["%.9f"] * params.arch.classes) + "\n"
    with atomic_write(cfg.report) if cfg.report else nullcontext(sys.stdout) as out:
        for features, _ in stream.chunks():
            x = spec.normalize(features)[:, :, None]
            probs, _ = network.forward(params, x, mode="infer")
            out.write("".join([line % (idx, names[idx], *row) for idx, row
                               in zip(probs.argmax(axis=1).tolist(), probs.tolist())]))
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig) -> int:
    spec, _, label_map = _io_setup(cfg)
    # double precision, which the check requires
    params = network.build(cfg.seed, _architecture(cfg, spec, label_map))
    report = training.gradient_check(params, probes=cfg.probes,
                                     tolerance=cfg.tolerance, seed=cfg.seed)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_NUMERIC


_HELP = {
    "data": "input CSV path",
    "weights": "weight manifest path",
    "report": "report / stats output path",
    "features": "features config file (columns, label map)",
    "policy": "malformed CSV row handling",
    "stratified": "stratify the train/validation split by class",
    "probes": "gradient-check probe count",
    "tolerance": "gradient-check tolerance",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botclf",
        description="Train, evaluate and run a GRU+CNN network-flow attack classifier.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    # one flag per setting, whose text config.resolve converts as it does
    # an environment or config-file value
    for f in fields(RunConfig):
        flags = ["--" + f.name.replace("_", "-")] + (["-v"] if f.name == "verbose" else [])
        no_value = isinstance(f.default, bool)  # a bool setting's flag takes no value
        common.add_argument(*flags, action="store_const" if no_value else "store",
                            const="true" if no_value else None, help=_HELP.get(f.name))

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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and on a malformed command line
        return exc.code
    try:
        cfg = resolve(vars(args), config_path=args.config)
        logging.basicConfig(level=logging.DEBUG if cfg.verbose else logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        # the finiteness checks report an overflow; numpy's warnings would repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            code = _COMMANDS[args.command](cfg)
        sys.stdout.flush()  # so a closed stdout pipe is caught here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed the output early, which ends the run without
        # error; stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"botclf: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError) as exc:
        print(f"botclf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"botclf: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
