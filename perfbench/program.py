"""Locate the zslp sources of the checkout the benchmark runs in.

The benchmark measures the package under ``src/`` next to its own
directory, never an installed copy, so it refuses to run without it.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


class MissingProgram(RuntimeError):
    pass


def import_zslp():
    """Import ``zslp`` from the checkout's ``src/``; raise MissingProgram if absent."""
    if not (SOURCE / "zslp" / "__init__.py").is_file():
        raise MissingProgram(f"no zslp sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import zslp

    if Path(zslp.__file__).resolve().parent != SOURCE / "zslp":
        raise MissingProgram(f"imported zslp from {zslp.__file__}, not {SOURCE}")
    return zslp
