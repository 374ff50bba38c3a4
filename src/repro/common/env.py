"""The one reader of ``REPRO_*`` run switches: :class:`RunConfig`.

Every behaviour switch of a run is resolved once, into a frozen
:class:`RunConfig`, by :meth:`RunConfig.from_env`; the network hands
plain values down from there, so nothing reads the environment mid-run
and a recorded config replays exactly.  Field ``name`` is read from
``REPRO_<NAME>``.  The two crypto switches (``REPRO_CRYPTO_FAST``,
``REPRO_VERIFY_CACHE``) are process-wide and frozen at import instead;
they use :func:`env_flag` directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.common.errors import ConfigError

_OFF = ("0", "false", "no", "off")

#: Peer-ledger storage engines.
BACKEND_KINDS = ("memory", "wal")
#: Execution backends (the spec may carry a worker count: ``process:4``).
EXECUTOR_KINDS = ("serial", "process")
#: Workers of an execution backend whose spec names no count.
DEFAULT_WORKERS = {"serial": 1, "process": 4}


def env_flag(name: str, default: bool) -> bool:
    """Read switch ``name``: unset or empty gives ``default``;
    ``0``/``false``/``no``/``off`` in any case turn it off; anything else
    turns it on."""
    raw = os.environ.get(name, "").strip()
    return _flag(name, raw) if raw else default


def parse_executor_spec(spec: str) -> tuple[str, int]:
    """Split ``"kind"`` / ``"kind:N"`` into ``(kind, workers)``."""
    kind, _, arg = spec.partition(":")
    if kind not in EXECUTOR_KINDS:
        known = ", ".join(EXECUTOR_KINDS)
        raise ConfigError(f"unknown executor kind {spec!r}: pick one of {known}")
    if not arg:
        return kind, DEFAULT_WORKERS[kind]
    try:
        workers = int(arg)
    except ValueError:
        raise ConfigError(f"invalid worker count in executor spec {spec!r}") from None
    if workers < 1:
        raise ConfigError(f"executor spec {spec!r} needs at least 1 worker")
    return kind, workers


def _flag(name: str, raw: str) -> bool:
    return raw.lower() not in _OFF


def _int(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not an integer") from None


def _seconds(name: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a number of simulated seconds, got {raw!r}"
        ) from None


def _text(name: str, raw: str) -> str:
    return raw


@dataclass(frozen=True)
class RunConfig:
    """Every behaviour switch of one run, validated on construction."""

    state_backend: str = "memory"  # peer-ledger storage engine
    executor: str = "serial"  # where pure CPU work runs: serial | process[:N]
    snapshot_every: int = 0  # blocks between snapshot manifests; 0 = off
    prune: bool = False  # archive pre-snapshot blocks once sealed
    reorder: bool = False  # conflict-aware ordering + early abort
    gossip_batch: bool = False  # one gossip payload per endorsement and target
    anti_entropy_every: float = 0.0  # digest-loop cadence (sim s); 0 = off
    shared_vscc: bool = True  # peers of a channel share block flags
    batch_verify: bool = True  # batched signature pre-pass per block
    endorse_cache: bool = True  # peer-side read-only simulation cache
    endorse_plan: bool = True  # policy-aware gateway endorsement plans

    def __post_init__(self) -> None:
        if self.state_backend not in BACKEND_KINDS:
            raise ConfigError(
                f"unknown state backend {self.state_backend!r} (choose from "
                f"{BACKEND_KINDS}; check the {env_var('state_backend')} "
                f"environment variable)"
            )
        parse_executor_spec(self.executor)
        if self.snapshot_every < 0:
            raise ConfigError(f"snapshot interval must be >= 0, got {self.snapshot_every}")
        if self.anti_entropy_every < 0:
            raise ConfigError(
                f"anti-entropy cadence must be >= 0, got {self.anti_entropy_every}"
            )

    @classmethod
    def from_env(cls, **overrides) -> "RunConfig":
        """Resolve every switch: ``overrides`` > ``REPRO_<NAME>`` > default."""
        values = dict(overrides)
        for name in _PARSERS.keys() - values.keys():
            raw = os.environ.get(env_var(name), "").strip()
            if raw:
                values[name] = parse_value(name, raw)
        return cls(**values)


def env_var(name: str) -> str:
    """The environment variable behind :class:`RunConfig` field ``name``."""
    return f"REPRO_{name.upper()}"


#: The string parser of each field, shared by the environment and by
#: ``FIELD=VALUE`` assignments on the command line.
_PARSERS = {
    f.name: {"bool": _flag, "int": _int, "float": _seconds, "str": _text}[f.type]
    for f in fields(RunConfig)
}


def parse_value(name: str, raw: str):
    """Parse ``raw`` as field ``name`` exactly like its environment variable."""
    return _PARSERS[name](env_var(name), raw.strip())
