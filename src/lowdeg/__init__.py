"""Exact-arithmetic toolkit for curves with many low-degree points.

Four layers:

* :mod:`lowdeg.fields` / :mod:`lowdeg.projective` -- canonical projective
  linear algebra over the rationals and prime fields;
* :mod:`lowdeg.numerology` -- genus and gonality ceilings, the Castelnuovo
  function, and the dimension-ledger recursion;
* :mod:`lowdeg.sym2_lattice` / :mod:`lowdeg.configurations` -- the
  numerical intersection lattice of the symmetric square of an elliptic
  curve, and brute-force incidence checks that mirror it;
* :mod:`lowdeg.classify` -- the classification table for degrees 2 to 5
  with a cross-checking audit.

The ``lowdeg`` command line exposes all of it with JSON or table output.
"""

from .classify import (
    AuditReport,
    ClassificationCase,
    audit,
    classification_json,
    classify,
)
from .configurations import (
    PointConfig,
    Sym2GroupModel,
    check_sylvester_gallai,
    common_subspace,
    hesse_configuration,
    incidence_pairing_check,
    maximal_lines,
    pairs_containing,
    pairs_with_sum,
    sym2_model,
    two_divisor_check,
)
from .errors import (
    AmbientMismatchError,
    ConfigurationError,
    LowdegError,
    MixedFieldError,
    ProjectionError,
)
from .fields import QQ, Field, PrimeField, RationalField
from .numerology import (
    UNBOUNDED,
    ConfigProfile,
    GenusBoundReport,
    GonalityBounds,
    castelnuovo_pi,
    genus_bound_main,
    genus_bound_special,
    gonality_bounds,
    riemann_hurwitz_check,
    riemann_hurwitz_min_degree,
    rs_profile,
)
from .projective import (
    ProjPoint,
    ProjSubspace,
    join,
    meet,
    project_from,
    project_subspace_from,
    projected_span_dim,
    rref,
    span,
)
from .sym2_lattice import (
    DFParams,
    SurfaceClass,
    adjunction_genus,
    canonical_class,
    df_class,
    df_genus,
    df_gonality_guard,
    fiber_class,
    is_effective,
    is_nef,
    pair,
    section_class,
)

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError",
    "AuditReport",
    "ClassificationCase",
    "ConfigProfile",
    "ConfigurationError",
    "DFParams",
    "Field",
    "GenusBoundReport",
    "GonalityBounds",
    "LowdegError",
    "MixedFieldError",
    "PointConfig",
    "PrimeField",
    "ProjPoint",
    "ProjSubspace",
    "ProjectionError",
    "QQ",
    "RationalField",
    "SurfaceClass",
    "Sym2GroupModel",
    "UNBOUNDED",
    "adjunction_genus",
    "audit",
    "canonical_class",
    "castelnuovo_pi",
    "check_sylvester_gallai",
    "classification_json",
    "classify",
    "common_subspace",
    "df_class",
    "df_genus",
    "df_gonality_guard",
    "fiber_class",
    "genus_bound_main",
    "genus_bound_special",
    "gonality_bounds",
    "hesse_configuration",
    "incidence_pairing_check",
    "is_effective",
    "is_nef",
    "join",
    "maximal_lines",
    "meet",
    "pair",
    "pairs_containing",
    "pairs_with_sum",
    "project_from",
    "project_subspace_from",
    "projected_span_dim",
    "riemann_hurwitz_check",
    "riemann_hurwitz_min_degree",
    "rref",
    "rs_profile",
    "section_class",
    "span",
    "sym2_model",
    "two_divisor_check",
]
