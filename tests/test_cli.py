"""Command-line interface: envelopes, exit codes, caching, rendering."""

import contextlib
import csv
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import degenloci.cli as cli
from degenloci import FORMAT_VERSION
from degenloci.cache import ResultCache
from degenloci.cli import _cells_enumerate, _json_text, main, parse_ambient
from degenloci.errors import VerificationError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# ambient-space argument


def test_parse_ambient_forms(tmp_path):
    assert parse_ambient("point").dim == 0
    assert parse_ambient("pn:3").betti == (1, 0, 1, 0, 1, 0, 1)
    assert parse_ambient("torus:1").betti == (1, 2, 1)
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"dim": 2, "betti": [1, 0, 3, 0, 1]}))
    loaded = parse_ambient(f"file:{path}")
    assert loaded.dim == 2 and loaded.betti == (1, 0, 3, 0, 1)
    with pytest.raises(ValueError):
        parse_ambient("bogus")


# ---------------------------------------------------------------------------
# envelopes and determinism


def test_ring_json_envelope_and_determinism(capsys):
    argv = ("ring", "grassmannian", "--d", "2", "--n", "4",
            "--max-degree", "8", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    envelope = json.loads(out1)
    assert set(envelope) == {"format_version", "command", "parameters", "result"}
    assert envelope["format_version"] == FORMAT_VERSION
    assert envelope["command"] == "ring grassmannian"
    assert envelope["parameters"] == {"d": 2, "n": 4, "max_degree": 8}
    ranks = [row["rank"] for row in envelope["result"]["rows"]
             if row["degree"] % 2 == 0]
    assert ranks == [1, 1, 2, 1, 1]
    assert all(row["torsion"] == [] for row in envelope["result"]["rows"])


def test_thresholds_json_frozen(capsys):
    argv = ("thresholds", "--kind", "skew", "--e", "6", "--r", "2",
            "--dimx", "10", "--format", "json")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    result = json.loads(out1)["result"]
    assert result["expected_dimension"] == 9
    assert result["expected_codimension"] == 1
    assert result["max_lefschetz"] == 7
    assert result["epsilon_table"][:6] == [[0, 1], [1, 2], [2, 3], [3, 4],
                                           [4, 0], [5, 1]]


# ---------------------------------------------------------------------------
# exit codes


def test_bad_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "ring", "grassmannian", "--d", "5",
                           "--n", "4", "--max-degree", "4")
    assert code == 2
    assert "degenloci:" in err

    code, _, err = run_cli(capsys, "thresholds", "--kind", "general",
                           "--e", "3", "--f", "2", "--r", "1", "--dimx", "5")
    assert code == 2

    code, _, err = run_cli(capsys, "betti", "general", "--ambient", "bogus",
                           "--e", "1", "--f", "1", "--r", "0")
    assert code == 2
    assert "ambient" in err


@pytest.mark.parametrize("spec", [
    "pn:1_0", "pn:\u0663", "pn: 3", "pn:", "pn:+3", "pn:-1", "torus:",
    "torus:2.0"])
def test_ambient_count_takes_ascii_digits_only(capsys, spec):
    # int() would read "1_0" as 10 and an Arabic-Indic three or " 3" as 3
    with pytest.raises(ValueError, match="cannot read ambient space"):
        parse_ambient(spec)
    code, out, err = run_cli(capsys, "betti", "general", "--ambient", spec,
                             "--e", "1", "--f", "1", "--r", "0")
    assert (code, out) == (2, "")
    assert err == (f"degenloci: cannot read ambient space {spec!r}; "
                   "use point, pn:N, torus:G or file:PATH\n")


@pytest.mark.parametrize("content", [
    None, "directory", "{not json", '{"betti": [1]}', '{"dim": 1}', "[1, 2]",
    '{"dim": 2, "betti": [1, 0, 1.9, 0, 1]}', '{"dim": 2.7, "betti": [1]}',
    '{"dim": 2, "betti": "10101"}', '{"dim": true, "betti": [1, 0, 1]}',
    '{"dim": 1, "betti": [true, 0, 1]}', "[" * 200000,
    '{"dim": 1000000000000000000000, "betti": [1]}'],
    ids=["missing", "directory", "invalid-json", "no-dim", "no-betti",
         "not-object", "float-betti", "float-dim", "string-betti", "bool-dim",
         "bool-betti", "deeply-nested", "huge-dim"])
def test_bad_ambient_file_exits_2(capsys, tmp_path, content):
    path = tmp_path / "space.json"
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    with pytest.raises(ValueError):
        parse_ambient(f"file:{path}")
    code, out, err = run_cli(capsys, "betti", "general", "--ambient",
                             f"file:{path}", "--e", "3", "--f", "3", "--r", "2")
    assert (code, out) == (2, "")
    assert err.startswith("degenloci: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("variant", ["chow", "verify"])
def test_negative_p_max_exits_2(capsys, variant):
    code, out, err = run_cli(capsys, "cells", variant, "--n", "5", "--d", "2",
                             "--r", "2", "--p-max", "-1")
    assert (code, out) == (2, "")
    assert "p_max must be nonnegative" in err


def test_negative_max_part_exits_2(capsys):
    code, out, err = run_cli(capsys, "partitions", "count", "--weight", "6",
                             "--max-part", "-2")
    assert (code, out) == (2, "")
    assert err == "degenloci: max_part must be nonnegative\n"


def test_negative_q_max_exits_2(capsys):
    code, out, err = run_cli(capsys, "partitions", "bijection", "--q-max", "-3",
                             "--max-part", "2")
    assert (code, out) == (2, "")
    assert err == "degenloci: q_max must be nonnegative\n"


def test_negative_up_to_exits_2(capsys):
    code, out, err = run_cli(capsys, "restriction", "--d", "2", "--r", "3",
                             "--up-to", "-1")
    assert (code, out) == (2, "")
    assert err == "degenloci: up_to_half_degree must be nonnegative\n"


def test_bijection_with_many_parts_exits_0(capsys):
    code, out, err = run_cli(capsys, "partitions", "bijection", "--q-max", "2",
                             "--max-part", "3000")
    assert (code, err) == (0, "")
    assert out.startswith("passed")


@pytest.mark.parametrize("argv, message", [
    (("--kind", "general", "--e", "3", "--f", "4", "--r", "1", "--dimx", "10",
      "--ambient-jump", "5"), "general setup takes no ambient_jump"),
    (("--kind", "skew", "--e", "6", "--r", "2", "--dimx", "10",
      "--ambient-jump", "2"), "skew setup takes no ambient_jump"),
    (("--kind", "orthogonal", "--r", "3", "--ambient-jump", "1", "--dimx", "10",
      "--max-rank", "7"), "orthogonal setup takes no max_rank"),
], ids=["general", "skew", "orthogonal"])
def test_thresholds_flag_foreign_to_kind_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "thresholds", *argv)
    assert (code, out, err) == (2, "", f"degenloci: {message}\n")


def test_missing_arguments_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ring", "grassmannian", "--d", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


_SMALL = st.integers(min_value=-3, max_value=9)
# an optional flag left out as often as given
_OPTIONAL = st.none() | _SMALL
_AMBIENT_SPECS = st.builds("{}:{}".format, st.sampled_from(("pn", "torus")),
                           st.integers(-2, 8))
# flags of each fuzzed command, each with the values drawn for it
_FUZZED = {
    ("thresholds",): {"--kind": st.sampled_from(("general", "skew", "orthogonal")),
                      "--dimx": st.integers(-3, 20), "--e": _OPTIONAL,
                      "--f": _OPTIONAL, "--r": _SMALL, "--max-rank": _OPTIONAL,
                      "--ambient-jump": _OPTIONAL},
    ("betti", "general"): {"--ambient": _AMBIENT_SPECS, "--e": _SMALL,
                           "--f": _SMALL, "--r": _SMALL},
    ("betti", "skew"): {"--ambient": _AMBIENT_SPECS, "--e": _SMALL, "--r": _SMALL},
    ("betti", "orthogonal"): {"--ambient": _AMBIENT_SPECS,
                              "--case": st.sampled_from(("even", "odd", "both"))},
    ("cells", "enumerate"): {"--n": _SMALL, "--d": _SMALL, "--r": _SMALL},
    ("cells", "verify"): {"--n": _SMALL, "--d": _SMALL, "--r": _SMALL,
                          "--p-max": _SMALL},
    ("cells", "chow"): {"--n": _SMALL, "--d": _SMALL, "--r": _SMALL,
                        "--p-max": _SMALL},
    ("partitions", "count"): {"--weight": st.integers(-3, 40),
                              "--max-part": _SMALL, "--max-length": _SMALL},
    ("partitions", "bijection"): {"--q-max": st.integers(-3, 14),
                                  "--max-part": _SMALL},
    ("ring", "isotropic"): {"--d": st.integers(-2, 4), "--r": st.integers(-2, 4),
                            "--max-degree": st.integers(-3, 12)},
    ("ring", "grassmannian"): {"--d": st.integers(-2, 4), "--n": st.integers(-2, 8),
                               "--max-degree": st.integers(-3, 12)},
    # --n other than 2r and --up-to past the isotropic dimension are drawn too
    ("restriction",): {"--d": st.integers(-2, 3), "--r": st.integers(-2, 3),
                       "--n": st.none() | st.integers(-3, 8),
                       "--up-to": st.none() | st.integers(-3, 8)},
}


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZED)))
    argv = list(command)
    for flag, values in _FUZZED[command].items():
        # a dropped flag exercises argparse's missing-argument error
        if draw(st.integers(0, 9)):
            value = draw(values)
            if value is not None:
                argv += [flag, str(value)]
    return argv + ["--format", draw(st.sampled_from(("json", "csv", "pretty")))]


# the fixture only clears the cache variable, the same for every example
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_argv())
def test_fuzzed_commands_exit_cleanly(monkeypatch, argv):
    monkeypatch.delenv("DEGENLOCI_CACHE_DIR", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 2, 3), argv
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("degenloci: ")
        assert len(err.getvalue().splitlines()) == 1, argv


def test_verification_failure_exit_3(capsys, monkeypatch):
    def broken(d, n, r, up_to=None):
        raise VerificationError("forced failure")

    monkeypatch.setattr("degenloci.rings.restriction_report", broken)
    code, _, err = run_cli(capsys, "restriction", "--d", "2", "--r", "3")
    assert code == 3
    assert "verification failed" in err


def test_failed_checks_exit_3(capsys, monkeypatch):
    fake = SimpleNamespace(to_json_obj=lambda: {
        "name": "segre", "parameters": {}, "computed": [], "oracle": [],
        "match": False, "first_mismatch": "forced", "notes": []})
    monkeypatch.setattr("degenloci.worked.run_examples", lambda name: [fake])
    code, out, _ = run_cli(capsys, "examples", "run", "--format", "pretty")
    assert code == 3
    assert "FAILED: forced" in out


# ---------------------------------------------------------------------------
# caching


def test_cache_stores_and_replays(capsys, tmp_path):
    argv = ("partitions", "count", "--weight", "6", "--max-part", "3",
            "--format", "json", "--cache-dir", str(tmp_path))
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1

    # poison the stored result; a replayed hit must show the poison,
    # proving the second run never recomputes
    envelope = json.loads(files[0].read_text())
    envelope["result"]["count"] = 999
    files[0].write_text(json.dumps(envelope))
    code, out2, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out2)["result"]["count"] == 999

    # a corrupt entry is a miss: the command recomputes and repairs it
    files[0].write_text("{not json")
    code, out3, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out3)["result"]["count"] == json.loads(out1)["result"]["count"]
    assert json.loads(files[0].read_text())["result"]["count"] == 7


_COUNT = ("partitions", "count", "--weight", "6", "--max-part", "3")
_CORRUPTIONS = {
    "empty": (_COUNT, lambda env: {}),
    "null-result": (_COUNT, lambda env: {"result": None}),
    "list-result": (_COUNT, lambda env: dict(env, result=[])),
    "parameters": (_COUNT, lambda env: dict(
        env, parameters=dict(env["parameters"], weight=7))),
    "command": (_COUNT, lambda env: dict(env, command="partitions bijection")),
    "format-version": (_COUNT, lambda env: dict(
        env, format_version=FORMAT_VERSION + 1)),
    "examples-dict-result": (("examples", "run", "segre"),
                             lambda env: dict(env, result={})),
    # text, written as it is: too deep for the JSON decoder's recursion
    "deeply-nested": (_COUNT, lambda env: "[" * 200000),
}


def _capture_caches(monkeypatch) -> list:
    """Record every cache a CLI run builds, to read its hit counters."""
    caches = []
    build = ResultCache.from_environment

    def capture(override=None):
        caches.append(build(override))
        return caches[-1]

    monkeypatch.setattr(ResultCache, "from_environment", capture)
    return caches


@pytest.mark.parametrize("argv, corrupt", _CORRUPTIONS.values(),
                         ids=_CORRUPTIONS.keys())
def test_malformed_cache_entry_is_recomputed(capsys, tmp_path, monkeypatch,
                                             argv, corrupt):
    argv += ("--format", "json")
    _, cold, _ = run_cli(capsys, *argv)
    run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    [path] = tmp_path.glob("*.json")
    corrupted = corrupt(json.loads(cold))
    path.write_text(corrupted if isinstance(corrupted, str) else json.dumps(corrupted))
    caches = _capture_caches(monkeypatch)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, cold, "")
    assert (caches[-1].hits, caches[-1].misses) == (0, 1)
    assert json.loads(path.read_text()) == json.loads(cold)


def test_valid_cache_entry_counts_one_hit(capsys, tmp_path, monkeypatch):
    argv = _COUNT + ("--format", "json", "--cache-dir", str(tmp_path))
    caches = _capture_caches(monkeypatch)
    _, cold, _ = run_cli(capsys, *argv)
    code, warm, _ = run_cli(capsys, *argv)
    assert (code, warm) == (0, cold)
    assert [(c.hits, c.misses) for c in caches] == [(0, 1), (1, 0)]


def test_unwritable_cache_dir_runs_uncached(capsys, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ("partitions", "count", "--weight", "6", "--max-part", "3",
            "--format", "json")
    _, fresh, _ = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(blocker / "cache"))
    assert (code, out, err) == (0, fresh, "")


def test_cache_entry_is_compact_json(capsys, tmp_path):
    argv = ("cells", "enumerate", "--n", "9", "--d", "3", "--r", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    # the envelope as main builds it, in insertion order: these are the
    # bytes json.dump wrote before the entry went through json.dumps
    envelope = {"format_version": FORMAT_VERSION, "command": "cells enumerate",
                "parameters": {"n": 9, "d": 3, "r": 2},
                "result": _cells_enumerate({"n": 9, "d": 3, "r": 2})}
    [path] = tmp_path.glob("*.json")
    assert path.read_bytes() == json.dumps(envelope).encode("utf-8")
    code, warm, _ = run_cli(capsys, *argv)
    assert (code, warm) == (0, cold)


def test_cache_key_separates_commands(capsys, tmp_path):
    run_cli(capsys, "partitions", "count", "--weight", "6", "--max-part", "3",
            "--cache-dir", str(tmp_path))
    run_cli(capsys, "partitions", "count", "--weight", "6", "--max-part", "4",
            "--cache-dir", str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_file_ambient_runs_uncached(capsys, tmp_path, monkeypatch):
    # the cache key holds the path, not the file's contents: an edited file
    # or the same relative path seen from another directory must not replay
    cache = tmp_path / "cache"
    argv = ("betti", "general", "--ambient", "file:amb.json", "--e", "2",
            "--f", "2", "--r", "1", "--format", "json")
    ranks = []
    for where, b2 in ((tmp_path, 1), (tmp_path, 5), (tmp_path / "other", 3)):
        where.mkdir(exist_ok=True)
        monkeypatch.chdir(where)
        (where / "amb.json").write_text(json.dumps({"dim": 5, "betti": [1, 0, b2]}))
        _, fresh, _ = run_cli(capsys, *argv)
        code, cached, _ = run_cli(capsys, *argv, "--cache-dir", str(cache))
        assert (code, cached) == (0, fresh)
        ranks.append(dict(json.loads(fresh)["result"]["betti"])[2])
    assert ranks == [2, 6, 4]
    assert not cache.exists()


# Runs main in a fresh interpreter, then reports on stderr which of these
# modules it loaded and, on a second line, which calculator modules ran.  An
# uncached run should load none of the first: OpenSSL's hash module is for
# cache keys only, and dataclasses (with the inspect it imports) is start-up
# time alone.  The package registers each calculator module lazily, and a
# registered module keeps the lazy loader's module type until its code runs.
_PROBED = ("_hashlib", "dataclasses", "inspect")
_CALCULATORS = ("cells", "chern", "intlinalg", "loci", "partitions", "rings",
                "worked")
_MODULE_PROBE = f"""\
import sys, types
from degenloci.cli import main
try:
    main(sys.argv[1:])
finally:
    print(*(name for name in {_PROBED!r} if name in sys.modules), file=sys.stderr)
    print(*(name for name in {_CALCULATORS!r}
            if type(sys.modules.get("degenloci." + name)) is types.ModuleType),
          file=sys.stderr)
"""
_RING_G24 = ("ring", "grassmannian", "--d", "2", "--n", "4", "--max-degree", "8")
_CELLS_6 = ("cells", "enumerate", "--n", "6", "--d", "2", "--r", "1")


def _job_env() -> dict:
    """The environment of a fresh interpreter importing this source tree."""
    env = {k: v for k, v in os.environ.items() if k != "DEGENLOCI_CACHE_DIR"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    return env


def _probe_modules(*argv):
    """Which of :data:`_PROBED` a fresh interpreter running ``argv`` loads,
    and which of :data:`_CALCULATORS` it runs."""
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, *argv],
                          capture_output=True, text=True, env=_job_env())
    assert proc.returncode == 0, proc.stderr
    loaded, ran = proc.stderr.splitlines()[-2:]
    return set(loaded.split()), set(ran.split())


@pytest.mark.parametrize("argv, runs", [
    (("--version",), ()),
    (_RING_G24, ("chern", "intlinalg", "partitions", "rings")),
    (_CELLS_6, ("cells", "partitions")),
    (("verify", "all"), _CALCULATORS),
    (("thresholds", "--kind", "skew", "--e", "6", "--r", "2", "--dimx", "10"),
     ("loci", "partitions"))],
    ids=["version", "ring", "cells", "verify-all", "thresholds"])
def test_uncached_run_never_loads_hashlib(argv, runs):
    # and runs only the calculator modules its command calls into
    assert _probe_modules(*argv) == (set(), set(runs))


def test_cached_run_keeps_its_cache_file_name(capsys, tmp_path, monkeypatch):
    # the key of this run is frozen at FORMAT_VERSION 2: existing cache
    # directories still hit until the version changes
    argv = _RING_G24 + ("--cache-dir", str(tmp_path))
    assert "_hashlib" in _probe_modules(*argv)[0]
    [path] = tmp_path.iterdir()
    assert path.name == ("b8ebef098aae99c3fef5dde18d4fcd548b45ab12b88ea586"
                         "3be7517a0228ea3c.json")
    assert _probe_modules(*argv)[1] == set()  # a replay runs no calculator
    caches = _capture_caches(monkeypatch)
    assert run_cli(capsys, *argv)[0] == 0
    assert (caches[0].hits, caches[0].misses) == (1, 0)
    assert list(tmp_path.iterdir()) == [path]


_TRACE_BOOT = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                           "perfbench", "trace_boot.py")


@pytest.mark.parametrize("argv, called", [
    (_RING_G24 + ("--format", "csv"), {"cli.main", "rings.graded_table"}),
    (_CELLS_6 + ("--format", "json"), {"cli.main"})], ids=["ring", "cells"])
def test_benchmark_tracer_finds_every_module(tmp_path, argv, called):
    # the benchmark's tracer imports degenloci.cli, then wraps functions it
    # reads from sys.modules["degenloci.<name>"], lazily registered or not
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, _TRACE_BOOT, str(spans_file), *argv],
                            capture_output=True, env=_job_env())
    plain = subprocess.run([sys.executable, "-m", "degenloci", *argv],
                           capture_output=True, env=_job_env())
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout != b""
    doc = json.loads(spans_file.read_text())
    assert {"cli.main", "rings.graded_table"} <= set(doc["names"])
    assert {doc["names"][span[0]] for span in doc["spans"]} >= called


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_output_write_exits_1(unbuffered):
    # buffered, the write fails at flush; unbuffered, at the write itself
    env = _job_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "degenloci", *_RING_G24,
                               "--format", "csv"], stdout=full,
                              stderr=subprocess.PIPE, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (
        1, f"degenloci: cannot write output: {os.strerror(errno.ENOSPC)}\n")


def test_cache_env_var_and_override(capsys, tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("DEGENLOCI_CACHE_DIR", str(env_dir))
    run_cli(capsys, "partitions", "count", "--weight", "2", "--max-part", "2")
    assert len(list(env_dir.glob("*.json"))) == 1

    run_cli(capsys, "partitions", "count", "--weight", "3", "--max-part", "2",
            "--cache-dir", str(flag_dir))
    assert len(list(flag_dir.glob("*.json"))) == 1
    assert len(list(env_dir.glob("*.json"))) == 1


@pytest.mark.parametrize("env, flag", [("", None), (None, ""), ("from-env", "")])
def test_empty_cache_dir_means_no_cache(capsys, tmp_path, monkeypatch, env, flag):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if env is None:
        monkeypatch.delenv("DEGENLOCI_CACHE_DIR", raising=False)
    else:
        monkeypatch.setenv("DEGENLOCI_CACHE_DIR",
                           env and str(tmp_path / env))
    argv = _COUNT + ("--format", "json")
    if flag is not None:
        argv += ("--cache-dir", flag)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["result"]["count"] == 7
    assert list(tmp_path.rglob("*")) == [work]


# ---------------------------------------------------------------------------
# rendering


_TEXT = st.text(st.characters(blacklist_categories=())
                | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600'
                                  '\ud800\udfff'))
_JSON_TREES = st.recursive(
    st.integers() | st.integers(-10 ** 1000, 10 ** 1000) | st.booleans()
    | st.none() | _TEXT | st.floats(),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.lists(st.integers()) | st.dictionaries(_TEXT, children)
    | st.dictionaries(st.integers(), children),
    max_leaves=25)


@settings(max_examples=200)
@given(_JSON_TREES)
def test_json_text_matches_stdlib(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# Record lists (dicts sharing their str keys) take the column-wise path of
# _json_text, chunk by chunk; random trees almost never build one.  The test
# shrinks the chunk so that lists reaching past several chunk edges stay
# small and a failure shrinks in seconds; test_json_output_matches_stdlib
# renders several chunks of the real size.
_AWKWARD = st.lists(st.sampled_from(["%", "%s", '", "', "]", "[", "a", '"',
                                     "\u00e9", "\\"]), max_size=4).map("".join)
_SHORT_INT_LISTS = st.lists(st.integers(-99, 99), min_size=1, max_size=3)
_COLUMN_POOLS = st.one_of(  # the values one column draws from
    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6),
    st.lists(_SHORT_INT_LISTS, min_size=1, max_size=6),
    st.lists(_SHORT_INT_LISTS, min_size=1, max_size=5).map(
        lambda pool: pool + [[]]),
    st.lists(st.booleans(), min_size=1, max_size=2),
    st.lists(st.sampled_from([10 ** 1000, -10 ** 1000])
             | st.integers(-10 ** 1000, 10 ** 1000), min_size=1, max_size=3),
    st.lists(st.lists(st.lists(st.integers(0, 9), max_size=2), max_size=2),
             min_size=1, max_size=4),
    st.lists(_AWKWARD, min_size=1, max_size=4),
    st.lists(st.integers(0, 9) | st.booleans() | st.none()
             | st.lists(st.integers(0, 9), max_size=2), min_size=1, max_size=6),
)


@st.composite
def _record_lists(draw, chunk):
    count = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1]))
    keys = draw(st.lists(_AWKWARD, min_size=1, max_size=4, unique=True))
    pools = [draw(_COLUMN_POOLS) for _ in keys]
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    records = []
    for _ in range(count):
        fields = [(key, rnd.choice(pool)) for key, pool in zip(keys, pools)]
        rnd.shuffle(fields)  # key order differs, the key set does not
        records.append(dict(fields))
    # half the lists are record lists; in the rest one record's keys differ
    odd = draw(st.sampled_from([None, None, None, "extra", "missing", "renamed"]))
    last = list(records[-1].items())
    if odd == "extra":
        records[-1] = dict(last + [("extra key", 0)])
    elif odd == "missing":
        records[-1] = dict(last[1:])
    elif odd == "renamed":
        records[-1] = dict(last[1:] + [("renamed key", last[0][1])])
    return draw(st.sampled_from([records, tuple(records), {"%(r)s": records},
                                 [[records]]]))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5]))
def test_json_text_matches_stdlib_on_record_lists(data, chunk):
    value = data.draw(_record_lists(chunk))
    with mock.patch.object(cli, "_RECORD_CHUNK", chunk):
        assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_output_matches_stdlib(capsys):
    code, out, _ = run_cli(capsys, "cells", "enumerate", "--n", "14", "--d", "7",
                           "--r", "0", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["total"] > 6 * cli._RECORD_CHUNK
    assert out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"


# SHA-256 of `cells enumerate ... --format json` stdout, frozen at spaces
# past the reach of the brute-force enumeration test (n <= 12)
_FROZEN_ENUMERATIONS = {
    ("18", "9", "3"):
        "b93a19d657741ae97515943fb968489afb5df312d4f14f3244af8ea4c320e3e8",
    ("19", "7", "3"):
        "13e8c597b2e6a115d51b494b5f255cadea6c2ff50bacb720263c6b7f0417dbec",
}


@pytest.mark.parametrize("space", sorted(_FROZEN_ENUMERATIONS))
def test_cells_enumerate_json_is_frozen(capsys, space):
    n, d, r = space
    code, out, _ = run_cli(capsys, "cells", "enumerate", "--n", n, "--d", d,
                           "--r", r, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _FROZEN_ENUMERATIONS[space]


def test_restriction_pretty(capsys):
    code, out, _ = run_cli(capsys, "restriction", "--d", "2", "--r", "3",
                           "--format", "pretty")
    assert code == 0
    assert "half-degree" in out
    assert "surjective only" in out
    assert "bijective guaranteed through half-degree 3" in out


def test_ring_csv(capsys):
    code, out, _ = run_cli(capsys, "ring", "isotropic", "--d", "2", "--r", "2",
                           "--max-degree", "6", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,rank,torsion"
    assert lines[1] == "0,1,"
    assert len(lines) == 8


def test_thresholds_csv(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--kind", "skew", "--e", "6",
                           "--r", "2", "--dimx", "10", "--format", "csv")
    assert code == 0
    assert out.startswith("quantity,value\n")
    assert "epsilon[0],1" in out
    assert "max_lefschetz,7" in out


def test_cells_outputs(capsys):
    code, out, _ = run_cli(capsys, "cells", "enumerate", "--n", "5", "--d", "2",
                           "--r", "2", "--format", "pretty")
    assert code == 0
    assert out.splitlines()[0] == "8 cells"

    code, out, _ = run_cli(capsys, "cells", "chow", "--n", "5", "--d", "2",
                           "--r", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,rank"

    code, out, _ = run_cli(capsys, "cells", "verify", "--n", "5", "--d", "2",
                           "--r", "2", "--format", "pretty")
    assert code == 0
    assert out.splitlines()[0] == "passed"


def test_betti_pretty_shows_assumptions(capsys):
    code, out, _ = run_cli(capsys, "betti", "general", "--ambient", "pn:10",
                           "--e", "3", "--f", "3", "--r", "2",
                           "--format", "pretty")
    assert code == 0
    assert "valid for degrees strictly below 9" in out
    assert "assuming: rank < r locus is empty" in out


def test_partitions_count_large_weight(capsys):
    code, out, _ = run_cli(capsys, "partitions", "count", "--weight", "250",
                           "--max-part", "250")
    assert (code, out) == (0, "230793554364681\n")


def test_examples_csv(capsys):
    code, out, _ = run_cli(capsys, "examples", "run", "segre",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,parameters,match,first_mismatch"
    assert len(lines) == 4
    assert all(line.split(",")[2] == "True" for line in lines[1:])


def test_csv_fields_holding_commas_are_quoted(capsys, monkeypatch):
    # a wrong oracle makes every mismatch message hold a comma
    monkeypatch.setattr("degenloci.worked.product_projective_betti",
                        lambda a, b, top: [7] * (top + 1))
    code, out, _ = run_cli(capsys, "examples", "run", "segre",
                           "--format", "csv")
    assert code == 3
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["name", "parameters", "match", "first_mismatch"]
    assert len(rows) == 3 and all(len(row) == 4 for row in rows)
    assert rows[0][3] == "degree 0: computed 1, oracle 7"
    fields = ["a,b", 'say "x"', "two\nlines", "plain", 3]
    line = ",".join(map(cli._csv_field, fields))
    assert next(csv.reader(io.StringIO(line))) == list(map(str, fields))


def test_verify_battery(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,passed,detail"
    assert len(lines) == 70
    assert all(line.split(",")[1] == "True" for line in lines[1:])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "degenloci" in capsys.readouterr().out


def test_module_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "degenloci", "partitions", "count",
         "--weight", "4", "--max-part", "2", "--max-length", "2",
         "--format", "pretty"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "1\n"
