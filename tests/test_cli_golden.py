"""Frozen CLI output: every leaf command, in every format, cold and warm.

``tests/golden/cli.json`` maps each argv (joined by single spaces) to the
exact stdout and exit code of ``degenloci ARGV --format FMT`` for the json,
csv and pretty formats.  Each case runs twice against its own fresh cache
directory, so the first run computes and the second replays the stored
result; both must print the golden bytes.

The file changes only on purpose, for example together with a
``FORMAT_VERSION`` bump.  Rewrite it with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from degenloci.cli import main
from test_acceptance import GOLDEN_COMMANDS

GOLDEN_FILE = Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("json", "csv", "pretty")

# one small invocation of each leaf command GOLDEN_COMMANDS leaves out
EXTRA_COMMANDS = (
    ("betti", "skew", "--ambient", "pn:12", "--e", "6", "--r", "1"),
    ("betti", "orthogonal", "--ambient", "pn:16", "--case", "even"),
    ("cells", "enumerate", "--n", "5", "--d", "2", "--r", "2"),
    ("cells", "verify", "--n", "5", "--d", "2", "--r", "2"),
    ("partitions", "count", "--weight", "6", "--max-part", "3",
     "--max-length", "2"),
    ("partitions", "bijection", "--q-max", "6", "--max-part", "3"),
    ("thresholds", "--kind", "general", "--e", "3", "--f", "4", "--r", "1",
     "--dimx", "10"),
    ("thresholds", "--kind", "orthogonal", "--r", "3", "--ambient-jump", "1",
     "--dimx", "10"),
)
COMMANDS = GOLDEN_COMMANDS + EXTRA_COMMANDS


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert sorted(_load_golden()) == sorted(" ".join(a) for a in COMMANDS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden_cold_and_warm(argv, fmt, tmp_path):
    golden = _load_golden()[" ".join(argv)][fmt]
    full = list(argv) + ["--format", fmt, "--cache-dir", str(tmp_path)]
    for run in ("cold", "warm"):
        code, out = _run(full)
        assert (code, out) == (golden["exit_code"], golden["stdout"]), run
    assert len(list(tmp_path.glob("*.json"))) == 1


def _write_golden() -> None:
    os.environ.pop("DEGENLOCI_CACHE_DIR", None)
    golden = {}
    for argv in COMMANDS:
        golden[" ".join(argv)] = {}
        for fmt in FORMATS:
            code, out = _run(list(argv) + ["--format", fmt])
            golden[" ".join(argv)][fmt] = {"exit_code": code, "stdout": out}
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
