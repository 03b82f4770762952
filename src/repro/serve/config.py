"""Serving-layer configuration: environment knobs + process overrides.

Mirrors the spill/engine configuration pattern: hardened environment
parsing through :mod:`repro.graphblas.envutil` (malformed values warn
once and fall back), with process-wide overrides installed by
``capi.GxB_Serve_set`` taking precedence over the environment.

Environment knobs (all optional):

* ``GRAPHBLAS_SERVE_WORKERS`` — worker threads (default 4).
* ``GRAPHBLAS_SERVE_QUEUE_DEPTH`` — admission queue capacity (default 128).
* ``GRAPHBLAS_SERVE_DEADLINE_S`` — default per-request deadline in
  seconds, queue wait included (default 30; ``0`` disables).
* ``GRAPHBLAS_SERVE_BUDGET`` — default per-request governor memory
  budget in bytes, ``k``/``m``/``g`` suffixes accepted (default unset =
  unlimited; ``0`` also means unlimited).
* ``GRAPHBLAS_SERVE_BREAKER_THRESHOLD`` — consecutive backend failures
  that trip its circuit breaker (default 5).
* ``GRAPHBLAS_SERVE_BREAKER_RESET_S`` — seconds an open breaker waits
  before half-open probing (default 5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..graphblas import envutil
from ..graphblas.errors import InvalidValue

__all__ = [
    "ServeConfig",
    "env_config",
    "serve_config",
    "set_serve_config",
    "reset_serve_config",
    "DEFAULT_WORKERS",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_BREAKER_THRESHOLD",
    "DEFAULT_BREAKER_RESET_S",
]

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_DEPTH = 128
DEFAULT_DEADLINE_S = 30.0
DEFAULT_BREAKER_THRESHOLD = 5
DEFAULT_BREAKER_RESET_S = 5.0


@dataclass
class ServeConfig:
    """One server's tunables (see the module docstring for the knobs)."""

    workers: int = DEFAULT_WORKERS
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    #: default per-request deadline (seconds, queue wait included);
    #: None/0 = no deadline.
    deadline_s: float | None = DEFAULT_DEADLINE_S
    #: default per-request governor memory budget (bytes); None/0 = none.
    memory_budget: int | None = None
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_reset_s: float = DEFAULT_BREAKER_RESET_S
    #: consecutive half-open probe successes that close a breaker.
    breaker_probes: int = 2
    #: primary kernel backend and the degradation chain behind it.
    backend: str = "optimized"
    fallbacks: tuple = ("reference", "scipy")
    #: queue-load fractions at which the degradation ladder advances:
    #: >= lite -> serial kernels for that request; >= reference ->
    #: reference backend.
    lite_watermark: float = 0.60
    reference_watermark: float = 0.85
    #: base seed for per-request retry backoff schedules.
    seed: int = 0
    #: serve-level retry attempts / backoff for retryable failures.
    attempts: int = 3
    base_delay_s: float = 0.002
    max_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InvalidValue(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise InvalidValue(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.deadline_s is not None and self.deadline_s < 0:
            raise InvalidValue(
                f"deadline_s must be >= 0, got {self.deadline_s}"
            )
        if self.memory_budget is not None and self.memory_budget < 0:
            raise InvalidValue(
                f"memory_budget must be >= 0, got {self.memory_budget}"
            )
        if self.breaker_threshold < 1:
            raise InvalidValue(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset_s < 0:
            raise InvalidValue(
                f"breaker_reset_s must be >= 0, got {self.breaker_reset_s}"
            )
        if self.attempts < 1:
            raise InvalidValue(f"attempts must be >= 1, got {self.attempts}")
        self.fallbacks = tuple(self.fallbacks)

    def as_dict(self) -> dict:
        return {
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "deadline_s": self.deadline_s,
            "memory_budget": self.memory_budget,
            "breaker_threshold": self.breaker_threshold,
            "breaker_reset_s": self.breaker_reset_s,
            "breaker_probes": self.breaker_probes,
            "backend": self.backend,
            "fallbacks": self.fallbacks,
            "lite_watermark": self.lite_watermark,
            "reference_watermark": self.reference_watermark,
        }


def env_config() -> ServeConfig:
    """A :class:`ServeConfig` from the environment, hardened."""
    deadline = envutil.env_float(
        "GRAPHBLAS_SERVE_DEADLINE_S", DEFAULT_DEADLINE_S, minimum=0.0
    )
    budget = envutil.env_bytes("GRAPHBLAS_SERVE_BUDGET", None, minimum=0)
    return ServeConfig(
        workers=envutil.env_int(
            "GRAPHBLAS_SERVE_WORKERS", DEFAULT_WORKERS, minimum=1
        ),
        queue_depth=envutil.env_int(
            "GRAPHBLAS_SERVE_QUEUE_DEPTH", DEFAULT_QUEUE_DEPTH, minimum=1
        ),
        deadline_s=deadline if deadline else None,
        memory_budget=budget if budget else None,
        breaker_threshold=envutil.env_int(
            "GRAPHBLAS_SERVE_BREAKER_THRESHOLD",
            DEFAULT_BREAKER_THRESHOLD, minimum=1,
        ),
        breaker_reset_s=envutil.env_float(
            "GRAPHBLAS_SERVE_BREAKER_RESET_S",
            DEFAULT_BREAKER_RESET_S, minimum=0.0,
        ),
    )


# Process-wide overrides installed by capi.GxB_Serve_set (the same
# override-over-environment layering as the spill configuration).
_override: dict = {}

_OVERRIDABLE = (
    "workers", "queue_depth", "deadline_s", "memory_budget",
    "breaker_threshold", "breaker_reset_s", "breaker_probes", "backend",
)


def set_serve_config(**kwargs) -> None:
    """Install process-wide serve defaults (the ``GxB_Serve_set`` core).

    Only the arguments given change; unknown names raise
    :class:`~repro.graphblas.errors.InvalidValue`.  The values are
    validated by constructing the effective config immediately, so a bad
    override never lies latent until the next server starts.
    """
    trial = dict(_override)
    for key, value in kwargs.items():
        if key not in _OVERRIDABLE:
            raise InvalidValue(
                f"unknown serve option {key!r}; "
                f"settable: {', '.join(_OVERRIDABLE)}"
            )
        if value is None:
            continue
        trial[key] = value
    replace(env_config(), **trial)  # validate before committing
    _override.clear()
    _override.update(trial)


def reset_serve_config() -> None:
    """Drop all overrides (back to environment control)."""
    _override.clear()


def serve_config() -> ServeConfig:
    """Effective process defaults: overrides over environment."""
    cfg = env_config()
    if _override:
        cfg = replace(cfg, **_override)
    return cfg
