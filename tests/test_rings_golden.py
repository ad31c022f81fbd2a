"""Frozen JSON of the large ring and restriction windows.

``tests/golden/rings.json`` maps each argv (joined by single spaces) to the
exact stdout of ``degenloci ARGV --format json``: full ring tables with
their torsion and monomial bases, and the restriction reports built on
them.  A change to the elimination kernel must reproduce every byte.

The file changes only on purpose, for example together with a
``FORMAT_VERSION`` bump.  Rewrite it with
``PYTHONPATH=src python tests/test_rings_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from degenloci.cli import main

GOLDEN_FILE = Path(__file__).parent / "golden" / "rings.json"

COMMANDS = (
    ("ring", "grassmannian", "--d", "4", "--n", "8", "--max-degree", "40"),
    ("ring", "isotropic", "--d", "4", "--r", "5", "--max-degree", "44"),
    ("ring", "isotropic", "--d", "5", "--r", "5", "--max-degree", "40"),
    ("restriction", "--d", "4", "--r", "5"),
    ("restriction", "--d", "5", "--r", "5"),
)


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--format", "json"])
    return code, out.getvalue()


def _load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert sorted(_load_golden()) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_ring_output_matches_golden(argv, monkeypatch):
    monkeypatch.delenv("DEGENLOCI_CACHE_DIR", raising=False)
    assert _run(argv) == (0, _load_golden()[" ".join(argv)])


def _write_golden() -> None:
    os.environ.pop("DEGENLOCI_CACHE_DIR", None)
    golden = {}
    for argv in COMMANDS:
        code, out = _run(argv)
        if code:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        golden[" ".join(argv)] = out
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
