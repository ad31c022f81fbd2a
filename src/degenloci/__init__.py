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

from .cells import (
    OrbitSignature,
    cell_histogram,
    chow_ranks_decomposition,
    enumerate_cells,
    enumerate_orbit_signatures,
    orbit_dimension,
    verify_restriction_bounds_degenerate,
)
from .chern import ChernPoly, cgen, qtilde, schur_determinant, series_inverse
from .errors import OutsideValidityError, VerificationError
from .loci import (
    AmbientData,
    GrassmannBundle,
    LagrangianBundle,
    MorphismSetup,
    betti_degeneracy,
    betti_orthogonal_special,
    betti_skew,
    expected_dimension_general,
    expected_dimension_skew,
    fibration_betti,
    max_lefschetz_general,
    max_lefschetz_skew,
    skew_to_orthogonal,
    thresholds_report,
    verify_growth_inequalities,
)
from .partitions import (
    BoxConstraint,
    Partition,
    StrictPartition,
    count_box_partitions,
    count_strict_partitions,
    enumerate_box_partitions,
    enumerate_strict_partitions,
    verify_doubling_bijection,
)
from .rings import (
    RingPresentation,
    graded_table,
    grassmannian_presentation,
    isotropic_presentation,
    restriction_report,
)
from .tables import BettiTable
from .worked import brill_noether_betti, run_examples

__version__ = "0.1.0"

# Bumped whenever the serialized output of any calculator changes shape or
# meaning; cached results from other format versions are ignored.
FORMAT_VERSION = 1

__all__ = [
    "AmbientData",
    "BettiTable",
    "BoxConstraint",
    "ChernPoly",
    "FORMAT_VERSION",
    "GrassmannBundle",
    "LagrangianBundle",
    "MorphismSetup",
    "OrbitSignature",
    "OutsideValidityError",
    "Partition",
    "RingPresentation",
    "StrictPartition",
    "VerificationError",
    "betti_degeneracy",
    "betti_orthogonal_special",
    "betti_skew",
    "brill_noether_betti",
    "cell_histogram",
    "cgen",
    "chow_ranks_decomposition",
    "count_box_partitions",
    "count_strict_partitions",
    "enumerate_box_partitions",
    "enumerate_cells",
    "enumerate_orbit_signatures",
    "enumerate_strict_partitions",
    "expected_dimension_general",
    "expected_dimension_skew",
    "fibration_betti",
    "graded_table",
    "grassmannian_presentation",
    "isotropic_presentation",
    "max_lefschetz_general",
    "max_lefschetz_skew",
    "orbit_dimension",
    "qtilde",
    "restriction_report",
    "run_examples",
    "schur_determinant",
    "series_inverse",
    "skew_to_orthogonal",
    "thresholds_report",
    "verify_doubling_bijection",
    "verify_growth_inequalities",
    "verify_restriction_bounds_degenerate",
    "__version__",
]
