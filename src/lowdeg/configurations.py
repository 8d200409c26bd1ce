"""One import for the paper's three configuration gadgets, and the Sylvester-Gallai report.

The gadgets live in their own modules, so that a command loads only its own:
the Sylvester-Gallai pass over plane point sets in :mod:`lowdeg.plane`,
Lemma 5.2's common codimension-3 subspace in :mod:`lowdeg.lemma52`, and the
unordered-pairs model over Z/N in :mod:`lowdeg.sym2_pairs`.  This module
re-exports their names for the callers that import them from here, and adds
:class:`SylvesterGallaiReport`, a dataclass, with
:func:`check_sylvester_gallai`, which wraps :func:`~lowdeg.plane.line_counts`
in it.  ``lowdeg sg`` calls :mod:`lowdeg.plane` directly, so it loads neither
``dataclasses`` nor the other two gadgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# Re-exported: the acceptance tests and the benchmark import these names from here.
# Each is the defining module's function object, so a wrapper that rebinds that object
# in every lowdeg namespace holding it sees the calls made through either name.
from .lemma52 import common_subspace, random_common_subspace_instance, random_subspace
from .plane import (
    Pair,
    PointConfig,
    charge_sylvester_gallai,
    collinear,
    hesse_configuration,
    line_counts,
    maximal_lines,
)
from .sym2_pairs import incidence_pairing_check, sym2_model


@dataclass(frozen=True)
class SylvesterGallaiReport:
    """Outcome of the two incidence properties of a plane configuration:
    every connecting line carries a third point (``is_sylvester_gallai``)
    and the size of the largest collinear subset.  When the first property
    fails, ``witness`` holds the lexicographically first ordinary pair.
    ``lines_by_size`` counts the lines of :func:`maximal_lines` by their
    number of points, in the order the sizes first occur there; the lines
    themselves are not kept."""

    num_points: int
    is_sylvester_gallai: bool
    max_collinear: int
    witness: Optional[Pair]
    lines_by_size: dict[int, int]


def check_sylvester_gallai(config: PointConfig) -> SylvesterGallaiReport:
    """:func:`~lowdeg.plane.line_counts` of the configuration, as a report."""
    witness, lines_by_size = line_counts(config)
    return SylvesterGallaiReport(
        num_points=len(config),
        is_sylvester_gallai=witness is None,
        max_collinear=max(lines_by_size),
        witness=witness,
        lines_by_size=lines_by_size,
    )
