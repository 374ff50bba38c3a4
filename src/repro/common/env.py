"""The one parser for boolean ``REPRO_*`` environment switches."""

from __future__ import annotations

import os

_OFF = ("0", "false", "no", "off")


def env_flag(name: str, default: bool) -> bool:
    """Read switch ``name``: unset or empty gives ``default``;
    ``0``/``false``/``no``/``off`` in any case turn it off; anything else
    turns it on."""
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    return raw not in _OFF
