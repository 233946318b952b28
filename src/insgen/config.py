"""Run configuration: one JSON file covering model, loss, training, decoding,
and task sections, with dotted-key command-line overrides.

Unknown sections or keys are rejected by name, and so is a value whose
JSON type does not match its field's annotation (no value is coerced). The
resolved configuration is echoed into the run directory so a run can be
reproduced exactly from its own artifacts. A run its model cannot hold, or
one with no train pairs, is rejected here, whoever loads the config. A
checkpoint records its run as `RunConfig.checkpoint_record()`, and
`run_from_checkpoint` reads it back through the same checks.
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
from .vocab import NUM_RESERVED, Vocab


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

    def checkpoint_record(self) -> dict:
        """What a checkpoint records of its run (its vocab, loss, task and decode sections)."""
        sections = {name: dataclasses.asdict(getattr(self, name)) for name in _RECORDED}
        return {"vocab": list(self.task.vocab().tokens), **sections}


_SECTIONS = {
    "model": ModelConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "decode": DecodeConfig,
    "task": TaskSpec,
}
_RECORDED = ("loss", "task", "decode")  # the sections a checkpoint records, with its vocab


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
        if not isinstance(data.get(name, {}), dict):
            raise ConfigError(f"config section [{name}] must be an object")
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


def run_from_checkpoint(model_config: ModelConfig, record, **decode_flags) -> tuple[RunConfig, Vocab]:
    """The run and vocab a checkpoint records, held to every check a train config gets.

    Non-None `decode_flags` override recorded decode keys. A stored
    `max_iterations` (a removed option) and termination (it follows the
    loss) are dropped.
    """
    record = record if isinstance(record, dict) else {}
    missing = [name for name in ("vocab",) + _RECORDED if name not in record]
    if missing:
        raise ConfigError(f"checkpoint records no {', '.join(missing)}")
    data = {name: record[name] for name in _RECORDED}
    if isinstance(data["decode"], dict):
        data["decode"] = {k: v for k, v in data["decode"].items() if k not in ("max_iterations", "termination")}
        data["decode"].update({k: v for k, v in decode_flags.items() if v is not None})
    config = config_from_dict({**data, "model": dataclasses.asdict(model_config)})
    try:
        vocab = Vocab(tokens=tuple(record["vocab"]))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad recorded vocab: {e}") from None
    if len(vocab) > model_config.vocab_size:
        raise ConfigError(f"recorded vocab has {len(vocab)} tokens; model.vocab_size is {model_config.vocab_size}")
    return config, vocab


def load_config(path: str | None, overrides: list[str] = ()) -> RunConfig:
    """Config file (optional) plus `section.key=value` overrides."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text ({e})") from None
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
