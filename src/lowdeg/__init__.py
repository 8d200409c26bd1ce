"""Exact-arithmetic toolkit for curves with many low-degree points.

Five layers:

* :mod:`lowdeg.fields` / :mod:`lowdeg.projective` -- canonical projective
  linear algebra over the rationals and prime fields;
* :mod:`lowdeg.numerology` -- genus and gonality ceilings, the Castelnuovo
  function, and the dimension-ledger recursion;
* :mod:`lowdeg.sym2_lattice` / :mod:`lowdeg.sym2_pairs` -- the numerical
  intersection lattice of the symmetric square of an elliptic curve, and a
  finite pairs model whose brute-force incidence checks mirror it;
* :mod:`lowdeg.lemma52` / :mod:`lowdeg.configurations` -- Lemma 5.2's common
  codimension-3 subspace, and Sylvester-Gallai checks of plane point sets;
* :mod:`lowdeg.classify` -- the classification table for degrees 2 to 5
  with a cross-checking audit.

The ``lowdeg`` command line exposes all of it with JSON or table output.
"""

__version__ = "0.1.0"
