"""Hardened environment-variable parsing.

Configuration knobs (``GRAPHBLAS_BACKEND``, ``GRAPHBLAS_DIFF_BUDGET``,
``GRAPHBLAS_GOVERNOR_BUDGET``, ...) are read from the environment, where a
typo'd value used to propagate as a raw ``ValueError`` deep inside the op
pipeline or silently select the wrong engine.  The helpers here never
raise on malformed input: they warn once per distinct (variable, value)
pair and fall back to the documented default.

``env_bytes`` accepts plain integers plus ``k``/``m``/``g`` binary
suffixes (``64m`` == 64 MiB) so CI legs can say what they mean.
"""

from __future__ import annotations

import os
import warnings

__all__ = [
    "env_int", "env_float", "env_bytes", "env_choice", "env_path",
    "env_on_off", "warn_once", "reset_warned",
]

_warned: set[tuple[str, str]] = set()

_SUFFIX = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def _warn_once(var: str, raw: str, why: str, default) -> None:
    key = (var, raw)
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(
        f"ignoring {var}={raw!r} ({why}); using default {default!r}",
        RuntimeWarning,
        stacklevel=3,
    )


def reset_warned() -> None:
    """Forget which (variable, value) pairs already warned (for tests)."""
    _warned.clear()


def warn_once(var: str, value: str, why: str, fallback) -> None:
    """Warn once per (variable, value) for a config that cannot be honored.

    Same dedup set and wording as the parsers above, for consumers whose
    value is *well-formed* but unusable in this environment — e.g.
    ``GRAPHBLAS_BACKEND=compiled`` with no JIT toolchain installed.
    """
    _warn_once(var, value, why, fallback)


def env_int(var: str, default, *, minimum=None):
    """Read an integer env var, warning and falling back on bad input."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw.strip())
    except ValueError:
        _warn_once(var, raw, "not an integer", default)
        return default
    if minimum is not None and value < minimum:
        _warn_once(var, raw, f"below minimum {minimum}", default)
        return default
    return value


def env_float(var: str, default, *, minimum=None):
    """Read a float env var, warning and falling back on bad input."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw.strip())
    except ValueError:
        _warn_once(var, raw, "not a number", default)
        return default
    if value != value:  # NaN
        _warn_once(var, raw, "not a number", default)
        return default
    if minimum is not None and value < minimum:
        _warn_once(var, raw, f"below minimum {minimum}", default)
        return default
    return value


def env_bytes(var: str, default, *, minimum=None):
    """Read a byte count; accepts ``k``/``m``/``g`` binary suffixes."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    text = raw.strip().lower()
    scale = 1
    if text and text[-1] in _SUFFIX:
        scale = _SUFFIX[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * scale
    except ValueError:
        _warn_once(var, raw, "not a byte count", default)
        return default
    if minimum is not None and value < minimum:
        _warn_once(var, raw, f"below minimum {minimum}", default)
        return default
    return value


def env_path(var: str, default=None):
    """Read a filesystem path env var.

    Unset means the default; a set-but-blank value is malformed (it would
    silently resolve to the current directory) and warns once.  Existence
    is *not* checked here — consumers create spill/checkpoint directories
    on demand.
    """
    raw = os.environ.get(var)
    if raw is None:
        return default
    value = raw.strip()
    if not value:
        _warn_once(var, raw, "empty path", default)
        return default
    return value


def env_on_off(var: str, default: bool) -> bool:
    """Read an ``on``/``off`` switch env var as a bool.

    The common pattern behind ``GRAPHBLAS_SPILL`` / ``GRAPHBLAS_OBS``:
    unset or malformed values warn once and fall back to ``default``.
    """
    fallback = "on" if default else "off"
    return env_choice(var, fallback, ("on", "off")) == "on"


def env_choice(var: str, default, choices):
    """Read an enumerated env var, warning and falling back on bad input."""
    raw = os.environ.get(var)
    if raw is None or not raw.strip():
        return default
    value = raw.strip()
    if value not in choices:
        _warn_once(var, raw, f"not one of {', '.join(sorted(choices))}", default)
        return default
    return value
