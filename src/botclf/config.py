"""Run configuration: flat key=value files, environment and flag overrides.

Precedence, highest first: command-line flags, environment variables
(prefix BOTCLF_, e.g. BOTCLF_SEED), config file, built-in defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .dataio import CsvSchema, FeatureSpec, LabelMap, DEFAULT_LABEL_MAP, POLICIES
from .errors import ConfigError, DataError
from .network import Architecture
from .numerics import PRECISIONS
from .training import CHECK_PROBES, CHECK_TOLERANCE, TrainConfig

ENV_PREFIX = "BOTCLF_"


@dataclass
class RunConfig:
    data: str | None = None
    weights: str = "botclf.weights"
    report: str | None = None
    features: str | None = None      # path to a features config file
    seed: int = TrainConfig.seed
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size
    learning_rate: float = TrainConfig.learning_rate
    validation_fraction: float = TrainConfig.validation_fraction
    stratified: bool = TrainConfig.stratified
    precision: str = "double"
    policy: str = POLICIES[0]        # malformed-row policy, one of POLICIES
    gru_units: int = Architecture.gru_units
    filters: int = Architecture.filters
    probes: int = CHECK_PROBES
    tolerance: float = CHECK_TOLERANCE
    verbose: bool = False


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(name: str, default, raw: str):
    """`raw` as the type of the option's `default`; a default of None marks a
    path, which stays text."""
    try:
        if isinstance(default, bool):
            lowered = raw.strip().lower()
            if lowered in _BOOL_TRUE:
                return True
            if lowered in _BOOL_FALSE:
                return False
            raise ValueError(raw)
        return raw if default is None else type(default)(raw)
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for option {name}") from None


def read_kv_file(path) -> dict:
    """Parse `key = value` lines; # starts a comment, blank lines ignored."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {stripped!r}")
                key, _, value = stripped.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from None
    return out


def resolve(cli_values: dict, config_path: str | None = None) -> RunConfig:
    """Merge flag values, env vars, and a config file into a RunConfig.

    `cli_values` holds only options the user actually passed (unset flags
    are absent or None). Range checks belong to what uses each setting
    (`TrainConfig`, `Architecture`, `gradient_check`), which the commands
    build before they read any file.
    """
    file_values = read_kv_file(config_path) if config_path else {}
    names = [f.name for f in fields(RunConfig)]
    # keys in files may be spelled with dashes
    normalized_file = {}
    for key, value in file_values.items():
        name = key.replace("-", "_")
        if name not in names:
            raise ConfigError(f"unknown config key {key!r}")
        normalized_file[name] = value

    cfg = RunConfig()
    for name in names:
        default = getattr(cfg, name)
        if name in cli_values and cli_values[name] is not None:
            setattr(cfg, name, cli_values[name])
        elif (env_val := os.environ.get(ENV_PREFIX + name.upper())) is not None:
            setattr(cfg, name, _coerce(name, default, env_val))
        elif name in normalized_file:
            setattr(cfg, name, _coerce(name, default, normalized_file[name]))
    for name, allowed in (("precision", PRECISIONS), ("policy", POLICIES)):
        value = getattr(cfg, name)
        if value not in allowed:
            raise ConfigError(f"{name} must be {' or '.join(map(repr, allowed))}, "
                              f"got {value!r}")
    return cfg


def _check_name(path, what: str, name: str) -> str:
    """`name`, refused unless a weights manifest carries it back unchanged:
    its meta joins the class map with ';' and ',' and reads each value back
    with every whitespace run as one space."""
    if ";" in name or " ".join(name.split()) != name:
        raise ConfigError(f"{path}: {what} {name!r} cannot be stored in a weights manifest; "
                          "use no ';' and single spaces only")
    return name


def load_features_config(path) -> tuple[FeatureSpec, CsvSchema, LabelMap]:
    """Features config: column list, label columns, class map.

        features = pkts, bytes, ...
        category_column = category
        subcategory_column = subcategory
        class.0 = Normal, Normal, Normal
        class.1 = DDoS, TCP, DDoS-TCP       # category, subcategory, display name
    """
    raw = read_kv_file(path)
    spec = FeatureSpec()
    columns = {}
    class_entries = {}
    for key, value in raw.items():
        if key == "features":
            names = tuple(_check_name(path, "feature name", tok.strip())
                          for tok in value.split(",") if tok.strip())
            try:
                spec = FeatureSpec(names=names)
            except DataError as exc:
                raise ConfigError(f"{path}: features: {exc}") from None
        elif key in ("category_column", "subcategory_column"):
            columns[key] = value
        elif key.startswith("class."):
            try:
                idx = int(key.split(".", 1)[1])
            except ValueError:
                raise ConfigError(f"{path}: bad class key {key!r}") from None
            parts = [_check_name(path, "class cell", tok.strip()) for tok in value.split(",")]
            if len(parts) != 3:
                raise ConfigError(f"{path}: class entries need "
                                  f"'category, subcategory, name', got {value!r}")
            class_entries[idx] = (parts[0], parts[1], parts[2])
        else:
            raise ConfigError(f"{path}: unknown features-config key {key!r}")
    schema = CsvSchema(**columns)
    if class_entries:
        if sorted(class_entries) != list(range(len(class_entries))):
            raise ConfigError(f"{path}: class indices must be 0..K-1 without gaps")
        pairs = tuple((class_entries[i][0], class_entries[i][1])
                      for i in range(len(class_entries)))
        display = tuple(class_entries[i][2] for i in range(len(class_entries)))
        try:
            label_map = LabelMap(pairs=pairs, names=display)
        except DataError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    else:
        label_map = DEFAULT_LABEL_MAP
    return spec, schema, label_map
