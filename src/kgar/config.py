"""Run configuration: per-task defaults, file parsing, and precedence.

Precedence, lowest to highest: per-task global defaults, per-dataset
defaults, config file, command-line flags. Config files are flat
`key=value` lines with `#` comments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .encoder import EncoderConfig
from .model import DECODERS, INITS, TASKS

OPTIMIZERS = ("gd", "adam")

# tuned values for the classification protocol
CLASSIFY_DEFAULTS = dict(
    l2=0.0005, dropout_attention=0.6, dropout_conv=0.4, batch_size=50,
    iterations=200, learning_rate=0.01,
)
# tuned values for the link-prediction protocol
LINKPRED_DEFAULTS = dict(
    l2=0.01, dropout_attention=0.6, dropout_conv=0.5, batch_size=50,
    iterations=6000, learning_rate=0.01,
)


@dataclass
class RunConfig:
    dataset_dir: str = "."
    task: str = "classify"
    embed_dim: int = 500
    num_layers: int = 2
    num_blocks: int = 10
    dropout_attention: float = 0.6
    dropout_conv: float = 0.4
    l2: float = 0.0005
    learning_rate: float = 0.01
    batch_size: int = 50
    iterations: int = 200
    seed: int = 0
    decoder: str = "complex"
    init: str = "scaled"
    filtered_negatives: bool = False
    optimizer: str = "gd"
    eval_interval: int = 100
    leaky_slope: float = 0.2

    def validate(self):
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                raise ValueError(f"{name} must be of type {kind}, got "
                                 f"{value!r}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.decoder not in DECODERS:
            raise ValueError(
                f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got {self.init!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        for name in ("embed_dim", "num_layers", "num_blocks", "batch_size",
                     "iterations", "eval_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be > 0, got {self.learning_rate}")
        if (self.task == "linkpred" and self.decoder == "complex"
                and self.embed_dim % 2):
            raise ValueError("complex decoder needs an even embed_dim, got "
                             f"{self.embed_dim}")
        # delegates block/dim divisibility and rate ranges
        self.encoder_config()
        return self

    def encoder_config(self):
        return EncoderConfig(
            embed_dim=self.embed_dim, num_layers=self.num_layers,
            num_blocks=self.num_blocks,
            dropout_attention=self.dropout_attention,
            dropout_conv=self.dropout_conv, leaky_slope=self.leaky_slope)


# annotations are strings ("int", "float", "bool", "str") here, as this
# module postpones their evaluation
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _has_type(value, kind):
    """Whether `value` may fill a field annotated `kind`; a bool is no
    number, and an int is a valid float."""
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, {"int": int, "float": (int, float), "str": str,
                              "bool": bool}[kind])


def coerce(field, raw):
    """Parse a string value from a config file into the field's type."""
    if field not in _FIELD_TYPES:
        raise ValueError(f"unknown config key {field!r}")
    kind = _FIELD_TYPES[field]
    if kind == "bool":
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{field}: expected a boolean, got {raw!r}")
    return {"int": int, "float": float, "str": str}[kind](raw)


def parse_config_file(path):
    """Flat key=value file -> dict of typed values."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            try:
                out[key] = coerce(key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}")
    return out


def resolve_config(task, dataset_defaults=None, file_values=None,
                   cli_values=None):
    """Layer the four sources and validate the result."""
    merged = {"task": task}
    merged.update(CLASSIFY_DEFAULTS if task == "classify" else LINKPRED_DEFAULTS)
    for layer in (dataset_defaults, file_values, cli_values):
        if layer:
            merged.update({k: v for k, v in layer.items() if v is not None})
    unknown = set(merged) - set(_FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged).validate()
