"""Pipeline configuration with file < environment < flag precedence.

Config files are flat ``key=value`` lines (``#`` comments allowed);
channel fields are namespaced as ``channel.<field>``. Environment
variables use the ``NSSFP_`` prefix with dots replaced by double
underscores, e.g. ``NSSFP_CHANNEL__CAPTURE_FRACTION=0.02``.
"""

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .corpus import DEFAULT_WORD_CAP
from .errors import ConfigurationError, read_records
from .fingerprint import DEFAULT_SIMILARITY_WINDOW, DEFAULT_VARIABILITY_THRESHOLD
from .model import DEFAULT_ORDER, DEFAULT_WEIGHTS
from .sidechannel import DEFAULT_DROP_FRACTION, ChannelConfig
from .stats import DEFAULT_EPSILON

ENV_PREFIX = "NSSFP_"


@dataclass(frozen=True)
class PipelineConfig:
    q: float = 0.9
    variability_threshold: float = DEFAULT_VARIABILITY_THRESHOLD
    similarity_window: int = DEFAULT_SIMILARITY_WINDOW
    epsilon: float = DEFAULT_EPSILON
    sequence_length: int = 2700
    drop_fraction: float = DEFAULT_DROP_FRACTION
    word_cap: int = DEFAULT_WORD_CAP
    order: int = DEFAULT_ORDER
    weights: tuple[float, ...] = DEFAULT_WEIGHTS
    seed: int = 0
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def __post_init__(self):
        if self.sequence_length < 1:
            raise ConfigurationError(f"sequence_length must be >= 1, got {self.sequence_length}")
        # a negative threshold is legal: it makes every series variable
        if not math.isfinite(self.variability_threshold):
            raise ConfigurationError("variability_threshold must be finite, "
                                     f"got {self.variability_threshold!r}")

    def resolved_lines(self) -> list[str]:
        """Deterministic key=value dump for run logs and output headers."""
        lines = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name == "channel":
                for cf in dataclasses.fields(ChannelConfig):
                    lines.append(f"channel.{cf.name}={getattr(value, cf.name)!r}")
            elif f.name == "weights":
                lines.append("weights=" + ",".join(repr(w) for w in value))
            else:
                lines.append(f"{f.name}={value!r}")
        return sorted(lines)


_PIPELINE_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
_CHANNEL_FIELDS = {f.name: f for f in dataclasses.fields(ChannelConfig)}


def parse_weights(raw: str) -> tuple[float, ...]:
    """Comma-separated interpolation weights, unigram first; ValueError if bad."""
    return tuple(float(v) for v in raw.split(","))


def _convert(base: str, raw: str):
    try:
        if base == "weights":
            return parse_weights(raw)
        f = _PIPELINE_FIELDS.get(base) or _CHANNEL_FIELDS[base]
        if f.type is int:
            return int(raw)
        if f.type is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {base}: {raw!r}") from exc


def read_config_file(path) -> dict[str, str]:
    records = read_records(path, ("key", "value"), "=")
    next(records)
    return {key.strip(): value.strip() for _, (key, value) in records}


def env_overrides() -> dict[str, str]:
    out = {}
    for key, value in os.environ.items():
        if not key.startswith(ENV_PREFIX):
            continue
        name = key[len(ENV_PREFIX):].lower().replace("__", ".")
        out[name] = value
    return out


def resolve_config(file_values: dict[str, str] | None = None,
                   env_values: dict[str, str] | None = None,
                   flag_values: dict[str, object] | None = None) -> PipelineConfig:
    """Merge the three sources, lowest precedence first, and validate. The
    channel's seed is always ``seed``: a ``channel.rng_seed`` key is refused."""
    flag_values = {k: v for k, v in (flag_values or {}).items() if v is not None}
    for source in (file_values or {}, env_values or {}, flag_values):
        if "channel.rng_seed" in source:  # resolved from seed below
            raise ConfigurationError("channel.rng_seed follows seed; set seed instead")
    merged: dict[str, object] = {}
    for source in (file_values or {}, env_values or {}):
        for key, raw in source.items():
            base = key.split(".", 1)[-1] if key.startswith("channel.") else key
            if key.startswith("channel."):
                if base not in _CHANNEL_FIELDS:
                    raise ConfigurationError(f"unknown channel option {base!r}")
            elif base not in _PIPELINE_FIELDS or base == "channel":
                raise ConfigurationError(f"unknown option {key!r}")
            merged[key] = _convert(base, str(raw))
    merged.update(flag_values)

    channel_kwargs = {}
    pipeline_kwargs = {}
    for key, value in merged.items():
        if key.startswith("channel."):
            channel_kwargs[key.split(".", 1)[1]] = value
        else:
            pipeline_kwargs[key] = value
    try:
        cfg = PipelineConfig(channel=ChannelConfig(**channel_kwargs), **pipeline_kwargs)
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc
    # the pipeline seed drives the channel generator
    return dataclasses.replace(cfg, channel=cfg.channel.with_seed(cfg.seed))
