"""``repro.config`` — every ``REPRO_*`` environment variable, in one table.

:data:`VARIABLES` names each variable with its kind, default and a
one-line help text; :func:`read` is the only reader of the environment
in the package.  It parses on every call (tests and the CLI set
variables at runtime, so nothing is snapshotted at import), and an
explicit value — a ``--checkpoint PATH`` flag, a ``workers=2``
argument — passed as ``override`` wins without the environment being
read.  Each kind has one rule:

``path``
    Blank means the default (``None`` unless the table gives one).  A
    switch word is never a file name: an on-word selects the variable's
    on-path (its default, or ``.repro_cache`` for ``REPRO_CACHE_DIR``);
    any other switch word warns, naming the variable, and counts as
    unset.  Returns a :class:`~pathlib.Path` or None.
``switch``
    Blank means the default.  :data:`ON_WORDS` read True and
    :data:`OFF_WORDS` False, in any case; anything else raises.
``count``
    Blank means unset (None); otherwise a positive integer or a raise.
``choice``
    One of the listed values (the first when blank), or a raise.
``level``
    A logging level name or number; blank means unset (None), and a bad
    value warns and counts as unset.

Path and level variables warn rather than raise because the
observability layer reads them at import: ``import repro`` and
``repro obs`` must still work so a bad setting can be diagnosed.  Every
raise is a :class:`ValueError` whose message names the variable.

This module imports only the standard library.
"""

from __future__ import annotations

import logging
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = [
    "OFF_WORDS",
    "ON_WORDS",
    "VARIABLES",
    "Variable",
    "environment",
    "parse_level",
    "read",
    "unknown_names",
]

#: Values that switch an on/off variable on (any case).
ON_WORDS = frozenset({"1", "true", "yes", "on"})
#: Values that switch an on/off variable off (any case).
OFF_WORDS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class Variable:
    """One ``REPRO_*`` environment variable."""

    name: str
    #: ``path``, ``switch``, ``count``, ``choice`` or ``level``.
    kind: str
    #: What a blank or unset value reads as.
    default: Any
    help: str
    #: ``path``: the path an on-word selects when the default is None.
    on_path: str | None = None
    #: ``choice``: the accepted values.
    choices: tuple[str, ...] = ()


#: Every variable the package reads, in the order ``repro obs`` lists them.
VARIABLES: dict[str, Variable] = {
    var.name: var
    for var in (
        Variable("REPRO_TRACE", "path", None,
                 "write a Chrome trace-event JSON at exit (turns tracing on)"),
        Variable("REPRO_METRICS", "path", None,
                 "write metrics at exit (`.json` snapshot, else Prometheus text)"),
        Variable("REPRO_PROFILE", "path", None,
                 "write the trace's span self times at exit (turns tracing on)"),
        Variable("REPRO_LOG", "level", None,
                 "stdlib log level for the `repro` logger (name or number)"),
        Variable("REPRO_MONITOR", "switch", False,
                 "attach a fleet monitor to `fleet`/`cap-sweep` without `--monitor`"),
        Variable("REPRO_MONITOR_LOG", "path", None,
                 "stream alert events as JSON lines (same as `--alert-log`)"),
        Variable("REPRO_CACHE", "switch", True,
                 "run caching; off makes every call execute"),
        Variable("REPRO_CACHE_DIR", "path", None,
                 "on-disk run-cache layer (`1` selects `.repro_cache`)",
                 on_path=".repro_cache"),
        Variable("REPRO_SWEEP_WORKERS", "count", None,
                 "worker processes for sweeps and sharded fleets (`1` forces serial)"),
        Variable("REPRO_SURROGATE", "switch", True,
                 "surrogate fast path; off falls back to exact simulation"),
        Variable("REPRO_SURROGATE_DIR", "path", ".repro_cache/surrogate",
                 "surrogate store directory"),
        Variable("REPRO_FLEET_CHECKPOINT", "path", None,
                 "checkpoint path for `repro fleet` (same as `--checkpoint`)"),
        Variable("REPRO_FLEET_HEARTBEAT", "path", None,
                 "live heartbeat JSON for `repro fleet` (same as `--heartbeat`)"),
        Variable("REPRO_RUNS", "switch", True,
                 "durable run ledger; off writes no records"),
        Variable("REPRO_RUNS_DIR", "path", ".repro_runs",
                 "run-ledger directory"),
        Variable("REPRO_TRACE_DTYPE", "choice", "float32",
                 "trace storage dtype (`float64` for full width)",
                 choices=("float32", "float64")),
    )
}


def parse_level(raw: str) -> int:
    """Translate a logging level name or number into a level.

    Raises
    ------
    ValueError
        If the string names no known level.
    """
    text = raw.strip()
    if not text:
        raise ValueError("empty log level")
    if text.isdigit():
        return int(text)
    level = logging.getLevelName(text.upper())
    if not isinstance(level, int):
        raise ValueError(f"unknown log level {raw!r}")
    return level


def read(name: str, override: Any = None) -> Any:
    """The value of variable ``name`` under its kind's rule.

    ``override`` (when not None) is returned instead, without reading
    the environment; path variables return it as a :class:`Path`.
    Raises ``KeyError`` for a name not in :data:`VARIABLES`.
    """
    var = VARIABLES[name]
    if override is not None:
        return Path(override) if var.kind == "path" else override
    raw = os.environ.get(name, "").strip()
    word = raw.lower()
    if var.kind == "path":
        on_path = var.on_path or var.default
        if word in ON_WORDS and on_path is not None:
            return Path(on_path)
        if word in ON_WORDS | OFF_WORDS:
            warnings.warn(
                f"{name}={raw!r} looks like a switch, not a file path; ignoring it",
                stacklevel=2,
            )
            raw = ""
        if not raw:
            return None if var.default is None else Path(var.default)
        return Path(raw)
    if not raw:
        return var.default
    if var.kind == "switch":
        if word in ON_WORDS:
            return True
        if word in OFF_WORDS:
            return False
        raise ValueError(
            f"{name} must be one of {'/'.join(sorted(ON_WORDS))} (on) or "
            f"{'/'.join(sorted(OFF_WORDS))} (off), got {raw!r}"
        )
    if var.kind == "count":
        try:
            count = int(raw)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"{name} must be a positive integer, got {raw!r}")
        return count
    if var.kind == "choice":
        if raw not in var.choices:
            raise ValueError(
                f"{name} must be one of {', '.join(var.choices)}, got {raw!r}"
            )
        return raw
    try:
        return parse_level(raw)
    except ValueError:
        warnings.warn(f"{name}={raw!r} is not a log level; ignoring it", stacklevel=2)
        return None


def environment() -> dict[str, dict[str, Any]]:
    """The table with each variable's raw setting (None when unset)."""
    return {
        var.name: {
            "kind": var.kind,
            "default": var.default,
            "value": os.environ.get(var.name),
            "help": var.help,
        }
        for var in VARIABLES.values()
    }


def unknown_names() -> list[str]:
    """Set ``REPRO_*`` names that are not in :data:`VARIABLES` (typos)."""
    return sorted(
        name
        for name in os.environ
        if name.startswith("REPRO_") and name not in VARIABLES
    )
