"""Strict parsing of the ``REPRO_*`` mode flags.

``REPRO_FASTPATH``, ``REPRO_VECTOR`` and ``REPRO_VERIFY`` are read
through :func:`env_flag` and ``REPRO_AUDIT`` through
:func:`audit_mode`, so a value such as ``off`` or ``yes`` fails loudly
instead of being silently read as one of the modes.

This module imports nothing from the rest of the package: the
simulation kernel, the data plane and the verify gate all read it.
"""

from __future__ import annotations

import os


def env_flag(name: str, default: bool) -> bool:
    """The boolean environment flag ``name``.

    Unset (or set to the empty string) gives ``default``; ``"0"`` and
    ``"1"`` give False and True.  Any other value raises.

    >>> env_flag("REPRO_DOCTEST_UNSET_FLAG", True)
    True
    """
    value = os.environ.get(name, "")
    if value == "":
        return default
    if value == "1":
        return True
    if value == "0":
        return False
    raise ValueError(f"{name} must be unset, '0' or '1'; got {value!r}")


def audit_mode() -> str | None:
    """The event-tie auditor mode, ``REPRO_AUDIT``.

    Unset, empty or ``"0"`` give None (auditing off); ``"1"`` (observe
    ties) and ``"reverse"`` (also fire tied batches reversed) are
    returned as-is.  Any other value raises.
    """
    value = os.environ.get("REPRO_AUDIT", "")
    if value in ("", "0"):
        return None
    if value in ("1", "reverse"):
        return value
    raise ValueError(
        f"REPRO_AUDIT must be unset, '0', '1' or 'reverse'; got {value!r}")
