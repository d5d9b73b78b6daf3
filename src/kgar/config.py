"""Run configuration: each setting stated once, file parsing, precedence.

A `RunConfig` field states the setting's type, its default and, in its
metadata, a one-line description; `CHOICES` lists the allowed values of
the settings that have them. The class defaults are the classification
protocol's tuned values, and `LINKPRED_DEFAULTS` the link-prediction
protocol's values where they differ. The CLI builds its flags and their
help from these. A RunConfig is frozen and checks every setting when it
is made, so an invalid config cannot exist; the encoder, the model and
training all read the one object.

Precedence, lowest to highest: per-task global defaults, per-dataset
defaults, config file, command-line flags. Config files are flat
`key=value` lines with `#` comments, each key stated at most once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import get_type_hints

from .model import DECODERS, INITS, TASKS

OPTIMIZERS = ("gd", "adam")
CHOICES = {"task": TASKS, "decoder": DECODERS, "init": INITS,
           "optimizer": OPTIMIZERS}

# tuned values for the link-prediction protocol that differ from the
# classification protocol's
LINKPRED_DEFAULTS = dict(l2=0.01, dropout_conv=0.5, iterations=6000)


def _setting(default, description):
    return field(default=default, metadata={"help": description})


@dataclass(frozen=True)
class RunConfig:
    dataset_dir: str = _setting(".", "dataset directory the run reads")
    task: str = _setting("classify", "objective; the CLI takes it from the "
                                     "dataset's bundle")
    embed_dim: int = _setting(500, "entity embedding width")
    num_layers: int = _setting(2, "graph convolution layers, the "
                                  "link-prediction protocol's tuned depth")
    num_blocks: int = _setting(10, "diagonal blocks per relation weight; "
                                   "must divide the layer widths")
    dropout_attention: float = _setting(
        0.6, "dropout on attention coefficients, tuned on the "
             "classification protocol and reused for link prediction")
    dropout_conv: float = _setting(0.4, "dropout on pre-activation "
                                        "aggregates")
    l2: float = _setting(0.0005, "L2 penalty coefficient, on the relation "
                                 "weights for classification and on the "
                                 "relation embeddings and the batch's "
                                 "entity rows for link prediction")
    learning_rate: float = _setting(0.01, "step size")
    batch_size: int = _setting(50, "sampled positives per iteration for link "
                                   "prediction; classification always trains "
                                   "full-batch")
    iterations: int = _setting(200, "training iterations")
    seed: int = _setting(0, "RNG seed for init and sampling")
    decoder: str = _setting(DECODERS[0], "link-prediction scoring function")
    init: str = _setting(INITS[0], "weight init: variance-scaled normals, or "
                                   "literal N(0,1)")
    filtered_negatives: bool = _setting(
        False, "resample corruptions that collide with known triples")
    optimizer: str = _setting("gd", "plain gradient descent or the adam "
                                    "variant")
    eval_interval: int = _setting(100, "iterations between validation "
                                       "metrics")
    leaky_slope: float = _setting(0.2, "negative slope of the attention "
                                       "LeakyReLU")

    def __post_init__(self):
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, "
                                 f"got {value!r}")
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got "
                                 f"{getattr(self, name)!r}")
        self._at_least_one("embed_dim", "num_layers", "num_blocks")
        if self.embed_dim % self.num_blocks:
            raise ValueError(f"num_blocks {self.num_blocks} does not divide "
                             f"embed_dim {self.embed_dim}")
        for rate, label in ((self.dropout_attention, "dropout_attention"),
                            (self.dropout_conv, "dropout_conv")):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{label} must be in [0,1), got {rate}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValueError(
                f"leaky_slope must be in (0,1), got {self.leaky_slope}")
        self._at_least_one("batch_size", "iterations", "eval_interval")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # NaN fails every comparison
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got "
                             f"{self.learning_rate}")
        if (self.task == "linkpred" and self.decoder == "complex"
                and self.embed_dim % 2):
            raise ValueError("complex decoder needs an even embed_dim, got "
                             f"{self.embed_dim}")

    def _at_least_one(self, *names):
        for name in names:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")

    # the old encoder hand-off, kept for kgbench, its only user
    def encoder_config(self):
        return self


# field name -> type (int, float, str or bool), in field order
FIELD_TYPES = get_type_hints(RunConfig)


def _has_type(value, kind):
    """Whether `value` may fill a field of type `kind`; a bool is no
    number, and an int is a valid float."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def coerce(field, raw):
    """Parse a string value from a config file into the field's type."""
    if field not in FIELD_TYPES:
        raise ValueError(f"unknown config key {field!r}")
    kind = FIELD_TYPES[field]
    if kind is bool:
        low = str(raw).strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{field}: expected a boolean, got {raw!r}")
    return kind(raw)


def parse_config_file(path):
    """Flat key=value file -> dict of typed values; a key stated twice is
    a ValueError naming both lines."""
    out, first = {}, {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})")
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first:
            raise ValueError(f"{path}:{lineno}: key {key!r} is set again, "
                             f"first at {path}:{first[key]}")
        first[key] = lineno
        try:
            out[key] = coerce(key, value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}")
    return out


def resolve_config(task, dataset_defaults=None, file_values=None,
                   cli_values=None):
    """Layer the four sources into one RunConfig, which checks them."""
    merged = {"task": task}
    if task == "linkpred":
        merged.update(LINKPRED_DEFAULTS)
    for layer in (dataset_defaults, file_values, cli_values):
        if layer:
            merged.update({k: v for k, v in layer.items() if v is not None})
    unknown = set(merged) - set(FIELD_TYPES)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)
