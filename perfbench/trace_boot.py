"""Run one degenloci CLI job with spans around each module's public functions.

Usage: python trace_boot.py SPANS_FILE ARG...

ARG... are the arguments of ``degenloci``.  The job's stdout, stderr and
exit code are those of ``python -m degenloci ARG...``; in addition, every
call into the wrapped functions is kept in memory as a span (name, start,
end, parent) and the spans are written to SPANS_FILE as JSON when the job
ends, with the time taken to import the package and a few work counters.

Each function is patched in every degenloci module that holds it under its
own name, because ``rings`` imports ``fraction_free_echelon`` by name and
``cells`` and ``cli`` import ``graded_table`` by name.  Counting work
(matrix sizes, partitions returned) happens inside a ``trace.count`` span,
so it is not charged to the caller's self time.
"""

from __future__ import annotations

import json
import os
import sys
import time

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, count=None):
        nid = self.name_id(name)
        count_id = self.name_id("trace.count")
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (nid, start, end, parent)
            if count is not None:
                spans.append(None)
                slot = len(spans) - 1
                begin = perf()
                count(self, args, result)
                spans[slot] = (count_id, begin, perf(), parent)
            return result

        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "names": self.names,
                       "spans": self.spans, "counts": self.counts}, handle)


def _count_returned(key):
    return lambda tracer, args, result: tracer.add(key, len(result))


def _count_matrix(tracer, args, result):
    rows, monos = result
    tracer.add("rings.matrix_entries", len(rows) * len(monos))
    tracer.add("rings.matrix_nnz", sum(1 for row in rows for x in row if x))


def _count_pieces(tracer, args, result):
    tracer.add("rings.pieces", sum(1 for row in result.rows if row.degree % 2 == 0))


def _count_load(tracer, args, result):
    if args[0].directory is not None:
        tracer.add("cache.hits" if result is not None else "cache.misses", 1)


def _count_store(tracer, args, result):
    cache, key = args[0], args[1]
    path = cache._path(key)
    if path is not None and os.path.isfile(path):
        tracer.add("cache.bytes_written", os.path.getsize(path))


# (module, function, span name, work counter)
TARGETS = (
    ("partitions", "enumerate_box_partitions", "partitions.enumerate",
     _count_returned("partitions.enumerated")),
    ("partitions", "enumerate_strict_partitions", "partitions.enumerate",
     _count_returned("partitions.enumerated")),
    ("partitions", "count_box_partitions", "partitions.count", None),
    ("partitions", "merge_doubled", "partitions.merge_split", None),
    ("partitions", "split_doubled", "partitions.merge_split", None),
    ("partitions", "verify_doubling_bijection", "partitions.bijection", None),
    ("chern", "series_inverse", "chern.series_inverse", None),
    ("rings", "grassmannian_presentation", "rings.presentation", None),
    ("rings", "isotropic_presentation", "rings.presentation", None),
    ("rings", "relation_rows", "rings.relation_rows", _count_matrix),
    ("rings", "graded_table", "rings.graded_table", _count_pieces),
    ("rings", "restriction_containment", "rings.restriction", None),
    ("rings", "restriction_report", "rings.restriction", None),
    ("intlinalg", "fraction_free_echelon", "intlinalg.echelon", None),
    ("intlinalg", "torsion_invariants", "intlinalg.torsion", None),
    ("intlinalg", "rank_mod_prime", "intlinalg.modp", None),
    ("intlinalg", "elementary_divisors", "intlinalg.smith", None),
    ("cells", "enumerate_orbit_signatures", "cells.enumerate",
     _count_returned("cells.signatures")),
    ("cells", "orbit_dimension", "cells.dimension", None),
    ("cells", "cell_histogram", "cells.histogram", None),
    ("cells", "chow_ranks_decomposition", "cells.decomposition", None),
    ("cells", "verify_restriction_bounds_degenerate", "cells.verify", None),
    ("loci", "betti_degeneracy", "loci.betti", None),
    ("loci", "betti_skew", "loci.betti", None),
    ("loci", "betti_orthogonal_special", "loci.betti", None),
    ("loci", "thresholds_report", "loci.thresholds", None),
    ("loci", "verify_growth_sweep", "loci.growth", None),
    ("loci", "verify_growth_inequalities", "loci.growth", None),
    ("worked", "run_examples", "worked.examples", None),
    ("cli", "main", "cli.main", None),
)


SPAN_NAMES = tuple(sorted({t[2] for t in TARGETS}
                          | {"cache.load", "cache.store", "trace.count"}))
COUNTERS = ("partitions.enumerated", "rings.matrix_entries", "rings.matrix_nnz",
            "rings.pieces", "cells.signatures", "cache.hits", "cache.misses",
            "cache.bytes_written")


def install(tracer: Tracer) -> None:
    modules = [m for name, m in sys.modules.items()
               if name == "degenloci" or name.startswith("degenloci.")]
    for module_name, attr, span, count in TARGETS:
        original = getattr(sys.modules[f"degenloci.{module_name}"], attr)
        wrapper = tracer.wrap(span, original, count)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    cache_cls = sys.modules["degenloci.cache"].ResultCache
    cache_cls.load = tracer.wrap("cache.load", cache_cls.load, _count_load)
    cache_cls.store = tracer.wrap("cache.store", cache_cls.store, _count_store)


def main() -> None:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    start = perf()
    import degenloci.cli  # noqa: F401  (imports every module)
    import_s = perf() - start
    tracer = Tracer()
    install(tracer)
    try:
        code = sys.modules["degenloci.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_file, import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
