"""Command-line front end.

Every subcommand computes a JSON-serializable result, wraps it in an
envelope recording the command, its parameters and the format version, and
renders it as json, csv or a plain-text table.  Results are cached on disk
when a cache directory is configured; a cache hit replays the stored
result, so hit or miss can only change timing, never output.  A command
whose ambient space is read from a ``file:`` runs uncached.

Each leaf command is one entry of :data:`COMMANDS`; the parser, the cache
key and the renderers all read that table.

JSON output is rendered by :func:`_json_text` to exactly the bytes of
``json.dumps(envelope, indent=2, sort_keys=True)``.  The stdlib gives up its
C encoder whenever ``indent`` is set, and its pure-Python generator chain
took most of the time of large commands such as ``cells enumerate``.  A
list of records, dicts sharing the same str keys such as those cells, is
rendered a column at a time: ints come out of ``int.__repr__`` and lists of
ints out of one ``repr`` of their column, as the stdlib writes them, and
each record out of one ``%``-template.  Records go in chunks of a fixed
size, so the column texts alive at once stay small and rendering holds less
memory than one text per record would.

Exit codes: 0 on success, 1 when the output cannot be written, 2 on
invalid parameters, 3 when a verification subcommand finds a genuine
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional

from . import FORMAT_VERSION, __version__, cells, loci, partitions, rings, \
    worked
from .cache import ResultCache
from .errors import OutsideValidityError, VerificationError
from .tables import FrozenRecord

EXIT_OK = 0
EXIT_WRITE_FAILED = 1
EXIT_BAD_PARAMS = 2
EXIT_VERIFICATION = 3


# ---------------------------------------------------------------------------
# ambient-space argument


def parse_ambient(spec: str) -> loci.AmbientData:
    """Read an ambient-space description.

    Accepted forms: ``point``, ``pn:N`` (projective N-space), ``torus:G``
    (complex torus of dimension G), N and G in ASCII digits, and ``file:PATH``
    (JSON object with ``dim`` and a ``betti`` list); else ValueError.
    """
    if spec == "point":
        return loci.AmbientData.point()
    kind, _, count = spec.partition(":")
    if kind in ("pn", "torus") and count.isascii() and count.isdigit():
        return (loci.AmbientData.projective_space if kind == "pn"
                else loci.AmbientData.abelian_variety)(int(count))
    if spec.startswith("file:"):
        path = spec[5:]
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ValueError(f"cannot read ambient file {path!r}: "
                             f"{exc.strerror}") from None
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"ambient file {path!r} is not JSON: {exc}") from None
        try:
            return loci.AmbientData(data["dim"], tuple(data["betti"]))
        except (KeyError, TypeError):
            raise ValueError(f"ambient file {path!r} must hold an object "
                             "with dim and a betti list") from None
    raise ValueError(
        f"cannot read ambient space {spec!r}; "
        "use point, pn:N, torus:G or file:PATH")


# ---------------------------------------------------------------------------
# computations too long for the table


def _cells_enumerate(p: dict) -> dict:
    n, d, r = p["n"], p["d"], p["r"]
    found = cells.enumerate_cells(n, d, r)
    # each cell becomes its record in place: one copy of it is resident at a time
    for i, (jumps, dim) in enumerate(found):
        found[i] = {"jumps": list(jumps), "dimension": dim}
    return {"n": n, "d": d, "r": r, "cells": found, "total": len(found)}


def _verify_all() -> dict:
    """Fast self-test battery touching every calculator; any failure is a
    regression, not a tuning matter."""
    checks: list[dict] = []

    def record(name: str, passed: bool, detail: Optional[str] = None):
        checks.append({"name": name, "passed": passed, "detail": detail})

    growth = loci.verify_growth_sweep(max_rank=8, t_max=100)
    record("growth-inequalities", growth.passed, growth.failure)

    doubling = partitions.verify_doubling_bijection(20, 6)
    record("doubling-bijection", doubling.passed, doubling.failure)

    for rep in worked.run_examples():
        label = "-".join([rep.name] + [str(v) for v in rep.parameters.values()
                                       if not isinstance(v, dict)])
        record(f"example-{label}", rep.match, rep.first_mismatch)

    for r in range(1, 5):
        for d in range(1, r + 1):
            try:
                rings.restriction_report(d, 2 * r, r)
                record(f"restriction-{d}-{r}", True)
            except VerificationError as exc:
                record(f"restriction-{d}-{r}", False, str(exc))

    for n in range(2, 7):
        for r in range(0, (n - 1) // 2 + 1):
            for d in range(1, n - r + 1):
                rep = cells.verify_restriction_bounds_degenerate(n, d, r)
                record(f"cells-{n}-{d}-{r}", rep.passed, rep.first_violation)

    for r in range(1, 4):
        for d in range(1, r + 1):
            dim = rings.isotropic_dimension(d, r)
            table = rings.graded_table(rings.isotropic_presentation(d, r), 2 * dim)
            hist = cells.cell_histogram(2 * r, d, r)
            agree = all(table.rank(2 * q) == hist.get(dim - q, 0)
                        for q in range(dim + 1))
            record(f"ring-vs-cells-{d}-{r}", agree,
                   None if agree else "Hilbert function disagrees with cells")

    return {"checks": checks, "passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# renderers too long for the table: csv builders return (header, rows) and
# pretty printers return lines.  Both read only the JSON result, so cached
# and fresh results print identically.


def _thresholds_csv(result: dict):
    rows = [[k, v] for k, v in sorted(result.items())
            if k not in ("setup", "epsilon_table", "notes")]
    rows += [[f"epsilon[{m}]", v] for m, v in result["epsilon_table"]]
    return "quantity,value", rows


def _thresholds_pretty(result: dict) -> list[str]:
    lines = [f"{key}: {result[key]}" for key in (
        "dim_x", "expected_dimension", "expected_codimension",
        "max_lefschetz", "connectivity_offset", "connected_if_dim_above")]
    if result["epsilon_table"]:
        eps = ", ".join(f"{m}:{v}" for m, v in result["epsilon_table"])
        lines.append(f"allowance by degree: {eps}")
    return lines + [f"note: {note}" for note in result["notes"]]


def _betti_csv(result: dict):
    return "degree,rank", result["betti"]


def _betti_pretty(result: dict) -> list[str]:
    lines = [f"{key}: {value}" for key, value in sorted(result["setup"].items())]
    bound = result["valid_below"]
    lines.append("complete table" if bound is None
                 else f"valid for degrees strictly below {bound}")
    lines += [f"  degree {p:3d}  rank {rank}" for p, rank in result["betti"]]
    return lines + [f"assuming: {note}" for note in result["assumptions"]]


def _ring_csv(result: dict):
    return "degree,rank,torsion", [
        [row["degree"], row["rank"], ";".join(map(str, row["torsion"]))]
        for row in result["rows"]]


def _ring_pretty(result: dict) -> list[str]:
    lines = [f"{result['label']} " + " ".join(
        f"{k}={v}" for k, v in sorted(result["params"].items()))]
    for row in result["rows"]:
        if row["degree"] % 2:
            continue
        tor = ("" if not row["torsion"]
               else "  torsion " + "x".join(f"Z/{t}" for t in row["torsion"]))
        lines.append(f"  degree {row['degree']:3d}  rank {row['rank']}{tor}")
    return lines


def _restriction_pretty(result: dict) -> list[str]:
    lines = [f"restriction in half-degrees 0..{len(result['rows']) - 1} "
             f"(bijective guaranteed through half-degree "
             f"{result['bijective_bound']})"]
    for row in result["rows"]:
        status = "bijective" if row["bijective"] else "surjective only"
        lines.append(f"  half-degree {row['half_degree']:3d}  "
                     f"{row['rank_source']} -> {row['rank_target']}  "
                     f"[{status}]")
    return lines


def _example_parameters(rep: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in rep["parameters"].items())


# ---------------------------------------------------------------------------
# the command table


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


def _int(flag: str, **options) -> tuple[tuple[str, ...], dict]:
    return _arg(flag, required=True, type=int, **options)


def _dest(flags: tuple[str, ...]) -> str:
    return flags[0].lstrip("-").replace("-", "_")


class Command(FrozenRecord):
    """One leaf command.

    ``name`` is the command string of the envelope and the cache key; its
    first word is a top-level subcommand and its second word, if any, a
    subcommand of that (or, with ``nested=False``, the only value of a
    positional argument).  ``help`` is the top-level help, given on the
    first command of each group.  ``params`` maps parsed arguments to the
    envelope's parameters, by default one per argument; ``compute`` maps
    those parameters to the JSON result, an instance of ``returns``.
    ``compute`` reads each calculator from its module when it runs, so
    patching that module's attribute (``degenloci.rings.graded_table``, say)
    reaches it, and a calculator module runs only when a command calls it.
    """

    __slots__ = ("name", "arguments", "compute", "csv", "pretty", "help", "params",
                 "nested", "returns")

    def __init__(self, name: str,
                 arguments: tuple[tuple[tuple[str, ...], dict], ...],
                 compute: Callable[[dict], Any],
                 csv: Callable[[Any], tuple[str, list]],
                 pretty: Callable[[Any], list[str]],
                 help: Optional[str] = None,
                 params: Optional[Callable[[argparse.Namespace], dict]] = None,
                 nested: bool = True, returns: type = dict):
        self._set_fields(name, arguments, compute, csv, pretty, help, params,
                         nested, returns)

    def parameters(self, args: argparse.Namespace) -> dict:
        if self.params is not None:
            return self.params(args)
        return {_dest(flags): getattr(args, _dest(flags))
                for flags, _ in self.arguments}


_CELL_SPACE = (_int("--n"), _int("--d"), _int("--r"))
_AMBIENT = _arg("--ambient", required=True,
                help="point, pn:N, torus:G or file:PATH")

COMMANDS = (
    Command(
        "thresholds",
        (_arg("--kind", required=True, choices=("general", "skew", "orthogonal")),
         _int("--dimx", help="dimension of the ambient space"),
         _arg("--e", type=int, help="rank of the source bundle"),
         _arg("--f", type=int, help="rank of the target bundle"),
         _arg("--r", type=int, default=0, help="rank bound of the locus"),
         _arg("--max-rank", type=int,
              help="rank bound holding everywhere on the ambient space"),
         _arg("--ambient-jump", type=int,
              help="intersection jump holding everywhere (orthogonal)")),
        lambda p: loci.thresholds_report(loci.MorphismSetup(
            p["kind"], e=p["e"], f=p["f"], r=p["r"], max_rank=p["max_rank"],
            ambient_jump=p["ambient_jump"]), p["dimx"]).to_json_obj(),
        _thresholds_csv, _thresholds_pretty,
        help="expected dimension, Lefschetz degree and connectedness bound "
             "of one setup"),
    Command(
        "betti general", (_AMBIENT, _int("--e"), _int("--f"), _int("--r")),
        lambda p: loci.betti_degeneracy(parse_ambient(p["ambient"]), p["e"],
                                        p["f"], p["r"]).to_json_obj(),
        _betti_csv, _betti_pretty, help="Betti table of a rank-drop locus"),
    Command(
        "betti skew", (_AMBIENT, _int("--e"), _int("--r")),
        lambda p: loci.betti_skew(parse_ambient(p["ambient"]), p["e"],
                                  p["r"]).to_json_obj(),
        _betti_csv, _betti_pretty),
    Command(
        "betti orthogonal",
        (_AMBIENT, _arg("--case", required=True, choices=("even", "odd"))),
        lambda p: loci.betti_orthogonal_special(parse_ambient(p["ambient"]),
                                                p["case"]).to_json_obj(),
        _betti_csv, _betti_pretty),
    Command(
        "ring grassmannian", (_int("--d"), _int("--n"), _int("--max-degree")),
        lambda p: rings.graded_table(
            rings.grassmannian_presentation(p["d"], p["n"]),
            p["max_degree"]).to_json_obj(),
        _ring_csv, _ring_pretty, help="graded ranks of a cohomology ring"),
    Command(
        "ring isotropic", (_int("--d"), _int("--r"), _int("--max-degree")),
        lambda p: rings.graded_table(
            rings.isotropic_presentation(p["d"], p["r"]),
            p["max_degree"]).to_json_obj(),
        _ring_csv, _ring_pretty),
    Command(
        "restriction",
        (_int("--d"), _int("--r"), _arg("--n", type=int, help="defaults to 2r"),
         _arg("--up-to", type=int, metavar="P",
              help="largest half-degree to compare")),
        lambda p: rings.restriction_report(p["d"], p["n"], p["r"],
                                           p["up_to"]).to_json_obj(),
        lambda result: ("half_degree,rank_source,rank_target,bijective", [
            [row["half_degree"], row["rank_source"], row["rank_target"],
             row["bijective"]] for row in result["rows"]]),
        _restriction_pretty,
        help="rank comparison along restriction from the ordinary to the "
             "isotropic Grassmannian",
        params=lambda a: {"d": a.d, "n": 2 * a.r if a.n is None else a.n,
                          "r": a.r, "up_to": a.up_to}),
    Command(
        "cells enumerate", _CELL_SPACE, _cells_enumerate,
        lambda result: ("jumps,dimension", [
            [" ".join(map(str, cell["jumps"])), cell["dimension"]]
            for cell in result["cells"]]),
        lambda result: [f"{result['total']} cells"] + [
            f"  jumps ({','.join(map(str, cell['jumps']))})  "
            f"dimension {cell['dimension']}" for cell in result["cells"]],
        help="cell decomposition of an isotropic Grassmannian in a "
             "degenerate form"),
    Command(
        "cells chow", _CELL_SPACE + (_arg("--p-max", type=int),),
        lambda p: cells.chow_ranks_decomposition(**p).to_json_obj(),
        _betti_csv, _betti_pretty),
    Command(
        "cells verify", _CELL_SPACE + (_arg("--p-max", type=int),),
        lambda p: cells.verify_restriction_bounds_degenerate(**p).to_json_obj(),
        lambda result: ("dimension,rank_restricted,rank_ambient", result["rows"]),
        lambda result: [
            "passed" if result["passed"]
            else f"FAILED: {result['first_violation']}"] + [
            f"  dimension {p:3d}  rank {lg} <= {g}" for p, lg, g in result["rows"]]),
    Command(
        "partitions count",
        (_int("--weight"), _int("--max-part"), _arg("--max-length", type=int)),
        lambda p: dict(p, count=partitions.count_box_partitions(**p)),
        lambda result: ("weight,max_part,max_length,count", [
            [result[k] for k in ("weight", "max_part", "max_length", "count")]]),
        lambda result: [str(result["count"])],
        help="partition counting utilities"),
    Command(
        "partitions bijection", (_int("--q-max"), _int("--max-part")),
        lambda p: partitions.verify_doubling_bijection(**p).to_json_obj(),
        lambda result: ("quantity,value", sorted(result.items())),
        lambda result: [
            "passed" if result["passed"] else f"FAILED: {result['failure']}",
            f"checked {result['pairs_checked']} pairs "
            f"across {result['weights_checked']} weights"]),
    Command(
        "examples run",
        (_arg("name", nargs="?", default=None,
              help="one example family; all of them when omitted"),),
        lambda p: [rep.to_json_obj() for rep in worked.run_examples(p["name"])],
        lambda result: ("name,parameters,match,first_mismatch", [
            [rep["name"], _example_parameters(rep), rep["match"],
             rep["first_mismatch"] or ""] for rep in result]),
        lambda result: [
            f"{rep['name']} {_example_parameters(rep)}: "
            + ("ok" if rep["match"] else f"FAILED: {rep['first_mismatch']}")
            for rep in result],
        help="run the bundled worked examples", returns=list),
    Command(
        "verify all", (_arg("scope", choices=("all",)),),
        lambda p: _verify_all(),
        lambda result: ("check,passed,detail", [
            [c["name"], c["passed"], c["detail"] or ""] for c in result["checks"]]),
        lambda result: [
            f"{c['name']}: " + ("ok" if c["passed"] else f"FAILED: {c['detail']}")
            for c in result["checks"]] + [
            "all checks passed" if result["passed"] else "verification FAILED"],
        help="run the self-test battery", nested=False),
)


# ---------------------------------------------------------------------------
# argument parsing and rendering


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenloci",
        description="Exact Betti tables, cohomology rings and cell counts "
                    "for rank-drop loci of vector-bundle morphisms.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    groups: dict = {}
    for command in COMMANDS:
        head, _, tail = command.name.partition(" ")
        if tail and command.nested:
            if head not in groups:
                group = sub.add_parser(head, help=command.help)
                groups[head] = group.add_subparsers(dest="variant", required=True)
            p = groups[head].add_parser(tail)
        else:
            p = sub.add_parser(head, help=command.help)
        for flags, options in command.arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--format", choices=("json", "csv", "pretty"),
                       default="pretty", help="output format")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="directory for cached results "
                            "(default: $DEGENLOCI_CACHE_DIR, else no cache)")
        p.set_defaults(leaf=command)
    return parser


def _replayable(envelope: dict, command: Command, params: dict) -> bool:
    """Whether a cached envelope is one this run would have written; any
    other entry is treated as a miss and recomputed."""
    return (envelope.get("format_version") == FORMAT_VERSION
            and envelope.get("command") == command.name
            and envelope.get("parameters") == params
            and isinstance(envelope.get("result"), command.returns))


def _result_ok(result) -> bool:
    if isinstance(result, list):
        return all(_result_ok(item) for item in result)
    if isinstance(result, dict):
        if result.get("passed") is False or result.get("match") is False:
            return False
    return True


_RECORD_CHUNK = 512


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value nested
    where ``pad`` starts a line.  Types are matched exactly, so a bool is
    never written as an int; anything not handled here (floats, empty
    containers, dicts with non-str keys, subclasses) goes to the stdlib.

    A list of dicts that all have the same str keys (a record list, such as
    the cells of ``cells enumerate``) is rendered a column at a time by
    :func:`_json_records`.  An all-int column is ``int.__repr__`` of each
    value, as the stdlib writes ints.  A column of non-empty lists of exact
    ints is cut out of one ``repr`` of the column: such a list reprs as the
    ``int.__repr__`` of its items joined by ``", "``, and no int text holds
    ``", "`` or ``"]"``, so replacing ``", "`` by the item separator and
    splitting at ``"]" + separator + "["`` yields each list's items exactly.
    Any other column is rendered value by value, by this function.  One
    ``%``-template per chunk, built from the sorted keys with ``%`` escaped,
    then lays out each record with the stdlib's indentation and separators.
    Records go :data:`_RECORD_CHUNK` at a time: the column texts of a whole
    list would hold more memory at once than one text per record does."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is dict and value and all(type(key) is str for key in value):
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)]) + pad + "}"
    if (kind is list or kind is tuple) and value:
        first = value[0]
        if all(type(item) is int for item in value):
            items = map(int.__repr__, value)
        elif (set(map(type, value)) == {dict} and first
              and all(type(key) is str for key in first)
              and all(map(first.keys().__eq__, map(dict.keys, value)))):
            items = _json_records(value, inner)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _json_records(records, pad: str) -> list[str]:
    """The texts of ``records``, non-empty dicts that all have the same str
    keys, nested where ``pad`` starts a line: one text per chunk of
    :data:`_RECORD_CHUNK` records, joined as :func:`_json_text` joins list
    items, so joining the chunks that way gives its bytes."""
    keys = sorted(records[0])
    field_pad = pad + "  "
    item_pad = field_pad + "  "
    item_sep = "," + item_pad
    labels = [encode_basestring_ascii(key).replace("%", "%%") + ": "
              for key in keys]
    chunks = []
    for start in range(0, len(records), _RECORD_CHUNK):
        chunk = records[start:start + _RECORD_CHUNK]
        columns, slots = [], []
        for key in keys:
            column = [record[key] for record in chunk]
            kinds = set(map(type, column))
            if kinds == {int}:
                columns.append(map(int.__repr__, column))
                slots.append("%s")
            elif (kinds == {list} and all(column)
                  and {type(item) for v in column for item in v} == {int}):
                columns.append(repr(column)[2:-2].replace(", ", item_sep)
                               .split("]" + item_sep + "["))
                slots.append("[" + item_pad + "%s" + field_pad + "]")
            else:
                columns.append([_json_text(v, field_pad) for v in column])
                slots.append("%s")
        template = "{" + field_pad + ("," + field_pad).join(
            [label + slot for label, slot in zip(labels, slots)]) + pad + "}"
        chunks.append(("," + pad).join([template % fields
                                        for fields in zip(*columns)]))
    return chunks


def _csv_field(value: object) -> str:
    """RFC 4180: a field holding , or " or a line break is quoted, " doubled."""
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _render(fmt: str, command: Command, envelope: dict) -> str:
    if fmt == "json":
        return _json_text(envelope) + "\n"
    if fmt == "csv":
        header, rows = command.csv(envelope["result"])
        return "\n".join([header] + [",".join(map(_csv_field, row))
                                     for row in rows]) + "\n"
    return "\n".join(command.pretty(envelope["result"])) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command: Command = args.leaf
    params = command.parameters(args)

    # a file: ambient runs uncached: its key would name the file, not its data
    cache = ResultCache.from_environment(
        "" if str(params.get("ambient")).startswith("file:") else args.cache_dir)
    key = cache.key(command.name, params, FORMAT_VERSION)
    envelope = cache.load(key, lambda env: _replayable(env, command, params))
    if envelope is None:
        try:
            result = command.compute(params)
        except (ValueError, OutsideValidityError) as exc:
            print(f"degenloci: {exc}", file=sys.stderr)
            return EXIT_BAD_PARAMS
        except VerificationError as exc:
            print(f"degenloci: verification failed: {exc}", file=sys.stderr)
            return EXIT_VERIFICATION
        envelope = {"format_version": FORMAT_VERSION, "command": command.name,
                    "parameters": params, "result": result}
        cache.store(key, envelope)

    text = _render(args.format, command, envelope)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"degenloci: cannot write output: {exc.strerror}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_WRITE_FAILED
    return EXIT_OK if _result_ok(envelope["result"]) else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
