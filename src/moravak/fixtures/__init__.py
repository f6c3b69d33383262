"""Bundled space and module fixtures.

CLI arguments that do not name an existing file are resolved against
this directory, so ``moravak ahss --space s3 ...`` works out of the box.
"""

from __future__ import annotations

from pathlib import Path

_HERE = Path(__file__).parent


def path(name: str, prefer: str | None = None) -> Path | None:
    """Absolute path of a bundled fixture, trying the bare name and the
    standard extensions; None when nothing matches.  A preferred
    extension wins when a bare name matches several fixtures."""
    candidates = [name, f"{name}.space", f"{name}.module"]
    if prefer:
        candidates.insert(0, f"{name}{prefer}")
    for candidate in candidates:
        p = _HERE / candidate
        if p.is_file() and p.parent == _HERE:
            return p
    return None
