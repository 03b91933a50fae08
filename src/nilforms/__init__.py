"""Exact-arithmetic cohomology and deformation engine for nilpotent Lie
algebras with invariant complex structures.

The pipeline: structure equations -> bigraded invariant complex ->
Bott-Chern/Aeppli/Dolbeault/de Rham dimensions and del-delbar lemma
flags -> Beltrami deformations, the coframe extension map, and the
power-series obstruction solver that extends d-closed (p,q)-forms
(hence p-Kaehler forms) to deformed fibers.  Everything runs over
Gaussian rationals and truncated polynomial rings; no floating point.
"""

from .algebra import (
    CoframeEndo,
    Form,
    FormAlgebra,
    InvariantComplex,
    StructureEquations,
    T01,
    T10,
    VectorValuedForm,
    build_complex,
    contract,
    neumann_invert,
    simultaneous_contract,
)
from .catalog import CatalogEntry, catalog_load, catalog_names, run_scenario
from .cohomology import (
    CohomologyReport,
    EvaluatedComplex,
    dclosed_dim,
    ddbar_image_dim,
    full_report,
    generic_points,
    zero_point,
)
from .deformation import (
    as_beltrami,
    deform_complex,
    evaluate_se,
    fiber_complex,
)
from .errors import (
    FlatnessError,
    FormatError,
    IntegrabilityError,
    NilformsError,
    NonInvertibleCoframe,
    NotPerturbative,
    ObstructionNonvanishing,
    PreconditionFailed,
    UnknownEntry,
)
from .extension import (
    ExtensionState,
    bc_nontriviality,
    extension_map,
    obstruction_residual,
    pkahler_extend,
    solve_conjugate_system,
    solve_extension,
)
from .lemmata import LemmaReport, dual_mild, lemma_report, mild, standard, strong, weak
from .positivity import (
    PositivityVerdict,
    hermitian_matrix_of,
    is_strictly_positive,
    is_transverse,
    pkahler_check,
    sigma_q,
)
from .scalars import DetRng, GaussianRational, ParamScalar, PolyRing, QI

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
