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

__version__ = "0.1.0"
