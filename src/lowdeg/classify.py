"""The classification table for curves with infinitely many degree-d points.

For 2 <= d <= 5 the possible sources of an infinite supply of degree-d
points are tabulated: degree-d covers of the projective line or of an
elliptic curve (positive rank required over the ground field), normalized
Debarre-Fahlaoui curves, and a short list of sporadic genera that survive
the genus caps.  The table is encoded as data, exactly as established; the
finer genus endpoints are tabulated facts, not re-derived here.  The
:func:`audit` layer checks what :mod:`lowdeg.numerology` and
:mod:`lowdeg.sym2_lattice` derive (the Debarre-Fahlaoui top genus, effective classes,
each sporadic and plane-quartic genus against its caps, the d = 5 cap) and the
cells' shape (covers first, provenances, geometric kinds among arithmetic ones,
plane quartics only at arithmetic d = 3); a byte-exact test fixture pins the rest.

``arithmetic=True`` classifies over the ground field; ``arithmetic=False``
classifies after base change to the algebraic closure, where the rank
condition on elliptic-curve targets disappears along with the arithmetic
sporadic cases.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import LowdegError, brief, check_int
from .numerology import castelnuovo_pi, genus_bound_main
from .sym2_lattice import DFParams, df_class, df_genus, is_effective

KIND_COVER_P1 = "cover_of_P1"
KIND_COVER_ELLIPTIC = "cover_of_elliptic"
KIND_DF = "debarre_fahlaoui"
KIND_SPORADIC = "sporadic_genus"
KIND_PLANE_QUARTIC = "plane_quartic_pointless"

SPORADIC_GENERA = {4: (4, 5), 5: (5, 6, 7, 8)}


class ClassificationCase(NamedTuple):
    kind: str
    params: dict
    provenance: str


def _cover_cases(d: int, arithmetic: bool) -> list[ClassificationCase]:
    p1 = ClassificationCase(
        kind=KIND_COVER_P1,
        params={"degree": d},
        provenance=f"degree-{d} pullback of the rational points of the projective line",
    )
    if arithmetic:
        elliptic = ClassificationCase(
            kind=KIND_COVER_ELLIPTIC,
            params={"degree": d, "requires_positive_rank": True},
            provenance=(
                f"degree-{d} pullback of the rational points of a positive-rank elliptic curve"
            ),
        )
    else:
        elliptic = ClassificationCase(
            kind=KIND_COVER_ELLIPTIC,
            params={"degree": d, "requires_positive_rank": False},
            provenance=f"degree-{d} pullback from an elliptic curve",
        )
    return [p1, elliptic]


def _df_case(d: int) -> ClassificationCase:
    return ClassificationCase(
        kind=KIND_DF,
        params={"d": d, "m_min": 1, "m_max": d, "genus_max": df_genus(DFParams(d, 1))},
        provenance=(
            "Debarre-Fahlaoui 1993: normalization of an integral curve on the "
            "symmetric square of an elliptic curve, class (d+m)*section - m*fiber"
        ),
    )


def _sporadic_case(d: int, genus: int) -> ClassificationCase:
    if d == 5:
        cap_note = "Castelnuovo cap pi(20, 12) = 8"
    else:
        cap_note = f"genus cap (d-1)(d-2)/2 + 2 = {genus_bound_main(d).bound_non_df_dagger}"
    return ClassificationCase(
        kind=KIND_SPORADIC,
        params={"genus": genus},
        provenance=f"{d}-minimal curve of genus {genus}; {cap_note}",
    )


def classify(d: int, arithmetic: bool = True) -> list[ClassificationCase]:
    """All sources of infinitely many degree-d points, as table rows.

    Raises for d outside 2..5; the first open case beyond the table is
    degree 6 in genus 11.
    """
    if not 2 <= check_int("d", d) <= 5:
        raise LowdegError(
            f"the classification is only available for 2 <= d <= 5, got {brief(d)} "
            f"(degree 6 is open)"
        )
    cases = _cover_cases(d, arithmetic)
    if d >= 4 or (d == 3 and arithmetic):
        cases.append(_df_case(d))
    if arithmetic:
        if d == 3:
            cases.append(
                ClassificationCase(
                    kind=KIND_PLANE_QUARTIC,
                    params={"genus": 3},
                    provenance=(
                        "genus-3 smooth plane quartic with no rational point, "
                        "positive-rank Jacobian, and at least one cubic point"
                    ),
                )
            )
        for genus in SPORADIC_GENERA.get(d, ()):
            cases.append(_sporadic_case(d, genus))
    return cases


def classification_json(d: int, arithmetic: bool = True) -> dict:
    """The wire format: {"d": ..., "mode": ..., "cases": [...]}."""
    return {
        "d": d,
        "mode": "arithmetic" if arithmetic else "geometric",
        "cases": [case._asdict() for case in classify(d, arithmetic)],
    }


def sporadic_genus_cap(d: int) -> int:
    """The cap that sporadic genera must respect: (d-1)(d-2)/2 + 2 in general,
    improved to the Castelnuovo value pi(20, 12) = 8 for d = 5."""
    if d == 5:
        return max(genus_bound_main(5).bound_non_df_dagger, castelnuovo_pi(20, 12))
    return genus_bound_main(d).bound_non_df_dagger


class AuditCheck(NamedTuple):
    name: str
    passed: bool
    detail: str


class AuditReport(NamedTuple):
    d: int
    checks: tuple[AuditCheck, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def audit(d: int) -> AuditReport:
    """Cross-check both table cells for degree d against the bound machinery."""
    arithmetic_cases = classify(d, arithmetic=True)
    geometric_cases = classify(d, arithmetic=False)
    checks: list[AuditCheck] = []

    def add(name: str, passed: bool, detail: str) -> None:
        checks.append(AuditCheck(name=name, passed=passed, detail=detail))

    for mode, cases in (("arithmetic", arithmetic_cases), ("geometric", geometric_cases)):
        kinds = [c.kind for c in cases]
        add(
            f"covers_present_{mode}",
            kinds[:2] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]
            and all(c.params.get("degree") == d for c in cases[:2]),
            f"both degree-{d} cover cases listed first",
        )
        add(
            f"provenance_{mode}",
            all(c.provenance for c in cases),
            "every case carries a provenance annotation",
        )

    geo_kinds = {c.kind for c in geometric_cases}
    arith_kinds = {c.kind for c in arithmetic_cases}
    add(
        "geometric_subset_of_arithmetic",
        geo_kinds <= arith_kinds,
        f"geometric kinds {sorted(geo_kinds)} within arithmetic kinds {sorted(arith_kinds)}",
    )

    bound = genus_bound_main(d)
    df_cases = [c for c in arithmetic_cases if c.kind == KIND_DF]
    if d == 2:
        add("no_df_for_d2", not df_cases, "no Debarre-Fahlaoui entry in the d = 2 cells")
    else:
        for case in df_cases:
            expected = df_genus(DFParams(d, 1))
            add(
                "df_genus_max",
                case.params["genus_max"] == expected == bound.bound_dagger,
                f"genus_max {case.params['genus_max']} equals the adjunction value "
                f"{expected} and the d(d-1)/2 + 1 ceiling {bound.bound_dagger}",
            )
            effective = all(
                is_effective(df_class(DFParams(d, m)))
                for m in range(case.params["m_min"], case.params["m_max"] + 1)
            )
            add("df_classes_effective", effective, "every class in the m range is effective")

    sporadic = [c for c in arithmetic_cases if c.kind == KIND_SPORADIC]
    quartic = [c for c in arithmetic_cases if c.kind == KIND_PLANE_QUARTIC]
    if d == 2:
        add(
            "no_sporadic_for_d2",
            not sporadic and not quartic,
            "the d = 2 cells contain covers only",
        )
    else:
        cap = sporadic_genus_cap(d)
        for case in sporadic + quartic:
            genus = case.params["genus"]
            add(
                f"sporadic_genus_{genus}_cap",
                genus <= cap and genus <= bound.overall,
                f"genus {genus} within cap {cap} and overall ceiling {bound.overall}",
            )
    if d == 5:
        add(
            "castelnuovo_cap_value",
            sporadic_genus_cap(5) == castelnuovo_pi(20, 12) == 8,
            "the d = 5 sporadic cap is the Castelnuovo value pi(20, 12) = 8",
        )
    quartic_everywhere = [
        (dd, mode)
        for dd in (2, 3, 4, 5)
        for mode, flag in (("arithmetic", True), ("geometric", False))
        if any(c.kind == KIND_PLANE_QUARTIC for c in classify(dd, flag))
    ]
    add(
        "plane_quartic_only_d3_arithmetic",
        quartic_everywhere == [(3, "arithmetic")],
        f"plane-quartic entries found at {quartic_everywhere}",
    )
    return AuditReport(d=d, checks=tuple(checks))


def audit_json(d: int) -> dict:
    report = audit(d)
    return {
        "d": report.d,
        "passed": report.passed,
        "checks": [c._asdict() for c in report.checks],
    }
