"""Exact calculators for the topology of rank-drop loci of bundle maps.

The package computes, over the integers and without floating point:

* Betti tables of degeneracy loci (general, skew-symmetric and orthogonal
  morphisms) in the degree range where they are forced by the ambient
  variety, together with the thresholds where Lefschetz-type restriction
  stops (:mod:`degenloci.loci`);
* presentations and Hilbert functions of the cohomology rings of ordinary
  and Lagrangian Grassmannians, and the rank comparison along the
  restriction between them (:mod:`degenloci.rings`);
* cell decompositions of isotropic Grassmannians in a possibly degenerate
  skew form, with additive (Chow) consequences (:mod:`degenloci.cells`);
* the partition combinatorics feeding all of the above
  (:mod:`degenloci.partitions`, :mod:`degenloci.chern`);
* cross-checked classical examples: Segre varieties, the Pluecker
  embedding, symmetric powers of curves (:mod:`degenloci.worked`).

Everything is deterministic; the ``degenloci`` command line exposes each
calculator with JSON, CSV and pretty output.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Bumped whenever the serialized output of any calculator changes shape or
# meaning; cached results from other format versions are ignored.
FORMAT_VERSION = 2

# The module each public name is read from, when it is first asked for.
_EXPORTS = {
    "AmbientData": "loci",
    "BettiTable": "tables",
    "BoxConstraint": "partitions",
    "ChernPoly": "chern",
    "GrassmannBundle": "loci",
    "LagrangianBundle": "loci",
    "MorphismSetup": "loci",
    "OrbitSignature": "cells",
    "OutsideValidityError": "errors",
    "Partition": "partitions",
    "RingPresentation": "rings",
    "StrictPartition": "partitions",
    "VerificationError": "errors",
    "betti_degeneracy": "loci",
    "betti_orthogonal_special": "loci",
    "betti_skew": "loci",
    "brill_noether_betti": "worked",
    "cell_histogram": "cells",
    "cgen": "chern",
    "chow_ranks_decomposition": "cells",
    "count_box_partitions": "partitions",
    "count_strict_partitions": "partitions",
    "enumerate_box_partitions": "partitions",
    "enumerate_cells": "cells",
    "enumerate_orbit_signatures": "cells",
    "enumerate_strict_partitions": "partitions",
    "expected_dimension_general": "loci",
    "expected_dimension_skew": "loci",
    "fibration_betti": "loci",
    "graded_table": "rings",
    "grassmannian_presentation": "rings",
    "isotropic_presentation": "rings",
    "max_lefschetz_general": "loci",
    "max_lefschetz_skew": "loci",
    "orbit_dimension": "cells",
    "qtilde": "chern",
    "restriction_report": "rings",
    "run_examples": "worked",
    "schur_determinant": "chern",
    "series_inverse": "chern",
    "skew_to_orthogonal": "loci",
    "thresholds_report": "loci",
    "verify_doubling_bijection": "partitions",
    "verify_growth_inequalities": "loci",
    "verify_restriction_bounds_degenerate": "cells",
}

__all__ = [*_EXPORTS, "FORMAT_VERSION", "__version__"]

# Each calculator module is put in sys.modules and bound here now, but its
# code runs only when one of its attributes is first read (the documented
# ``importlib.util.LazyLoader`` recipe).  A module that binds another with
# ``from . import name`` therefore runs it only when it calls into it, so
# each process compiles only the modules its command uses.
for _name in ("cells", "chern", "intlinalg", "loci", "partitions", "rings",
              "worked"):
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__() -> list[str]:
    return list(__all__)
