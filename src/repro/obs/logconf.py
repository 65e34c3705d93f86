"""Stdlib logging configuration for the ``repro`` package.

Every instrumented module holds a ``logging.getLogger(__name__)`` logger
under the ``repro`` hierarchy; nothing is emitted until a handler is
attached.  :func:`configure_logging` attaches a stderr handler to the
``repro`` root logger at a level taken from (in priority order) the
explicit argument, the ``REPRO_LOG`` environment variable, or WARNING.

This keeps library behaviour quiet by default — the former silent
failure paths (torn disk reads, process-pool fallbacks) now *log*, and
``REPRO_LOG=debug`` / ``--log-level debug`` makes them visible.
"""

from __future__ import annotations

import logging
import sys

from repro.config import parse_level, read

#: The package root logger name.
ROOT_LOGGER = "repro"

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

_configured_handler: logging.Handler | None = None


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (thin getLogger wrapper)."""
    return logging.getLogger(name)


def configure_logging(level: str | int | None = None) -> logging.Logger:
    """Attach (or retune) the stderr handler on the ``repro`` logger.

    Safe to call repeatedly: one handler is installed and its level
    updated in place.  Returns the configured root logger.
    """
    global _configured_handler
    if level is None:
        resolved = read("REPRO_LOG")
        if resolved is None:
            resolved = logging.WARNING
    elif isinstance(level, str):
        resolved = parse_level(level)
    else:
        resolved = int(level)
    root = logging.getLogger(ROOT_LOGGER)
    if _configured_handler is None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        root.addHandler(handler)
        _configured_handler = handler
    root.setLevel(resolved)
    _configured_handler.setLevel(resolved)
    return root


def reset_logging() -> None:
    """Detach the handler installed by :func:`configure_logging` (tests)."""
    global _configured_handler
    if _configured_handler is not None:
        logging.getLogger(ROOT_LOGGER).removeHandler(_configured_handler)
        _configured_handler = None
    logging.getLogger(ROOT_LOGGER).setLevel(logging.NOTSET)
