"""Run configuration: one JSON file covering model, loss, training, decoding,
and task sections, with dotted-key command-line overrides.

Unknown sections or keys are rejected by name, and so is a value whose
JSON type does not match its field's annotation (no value is coerced). The
resolved configuration is echoed into the run directory so a run can be
reproduced exactly from its own artifacts. A run its model cannot hold, or
one with no train pairs, is rejected here, whoever loads the config.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass, field

from .decoding import DecodeConfig
from .losses import LossConfig
from .model import ModelConfig, decoder_positions
from .tasks import TaskSpec
from .training import TrainConfig
from .vocab import NUM_RESERVED


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=lambda: ModelConfig(vocab_size=0))
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)
    task: TaskSpec = field(default_factory=TaskSpec)

    def resolved_model(self) -> ModelConfig:
        """Model config with vocab_size derived from the task when left at 0."""
        cfg = dataclasses.replace(self.model)
        if cfg.vocab_size == 0:
            cfg.vocab_size = NUM_RESERVED + self.task.content_vocab_size
        return cfg

    def to_dict(self) -> dict:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}


_SECTIONS = {
    "model": ModelConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "decode": DecodeConfig,
    "task": TaskSpec,
}


def _section_fields(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# the value types each field annotation accepts: a bool is not an int, an
# int is a float, and a string is never parsed into anything else
_ACCEPTED = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def build_section(name: str, cls, data: dict):
    unknown = set(data) - _section_fields(cls)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {', '.join(sorted(unknown))}")
    for key, annotation in typing.get_type_hints(cls).items():
        if key in data and type(data[key]) not in _ACCEPTED[annotation]:
            raise ConfigError(
                f"{name}.{key} must be {annotation.__name__}, got {type(data[key]).__name__} {data[key]!r}"
            )
    try:
        return cls(**data)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid [{name}] config: {e}") from e


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    sections = {}
    for name, cls in _SECTIONS.items():
        raw = dict(data.get(name, {}))
        if name == "model":
            raw.setdefault("vocab_size", 0)
        if name == "decode":
            raw.setdefault("termination", sections["loss"].termination)
        sections[name] = build_section(name, cls, raw)
    decode_t, loss_t = sections["decode"].termination, sections["loss"].termination
    if decode_t != loss_t:
        raise ConfigError(f"decode.termination {decode_t!r} must match loss.termination {loss_t!r}")
    config = RunConfig(**sections)
    # training canvases reach task.max_length tokens, decoded ones decode.max_output_length
    for key, n, purpose in (
        ("task.max_length", config.task.max_length, " for a full canvas"),
        ("decode.max_output_length", config.decode.max_output_length, ""),
    ):
        if decoder_positions(n) > config.model.max_positions:
            raise ConfigError(
                f"{key} {n} needs {decoder_positions(n)} decoder positions{purpose}; "
                f"model.max_positions is {config.model.max_positions}"
            )
    vocab_size, task_vocab = config.resolved_model().vocab_size, len(config.task.vocab())
    if vocab_size < task_vocab:
        raise ConfigError(f"model vocab_size {vocab_size} smaller than task vocab {task_vocab}")
    if config.task.num_train == 0:
        raise ConfigError("task.num_train is 0: training needs at least one pair")
    return config


def load_config(path: str | None, overrides: list[str] = ()) -> RunConfig:
    """Config file (optional) plus `section.key=value` overrides."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from None
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key, _, raw_value = item.partition("=")
        if key.count(".") != 1:
            raise ConfigError(f"override key {key!r} is not of the form section.key")
        section, name = key.split(".")
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r} in override {item!r}")
        if name not in _section_fields(_SECTIONS[section]):
            raise ConfigError(f"unknown key {key!r}")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value  # bare words are strings
        data.setdefault(section, {})[name] = value
    return config_from_dict(data)


def write_effective_config(path: str, config: RunConfig) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(config.to_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
