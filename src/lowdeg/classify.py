"""The classification table for curves with infinitely many degree-d points.

For 2 <= d <= 5 the possible sources of an infinite supply of degree-d
points are tabulated: degree-d covers of the projective line or of an
elliptic curve (positive rank required over the ground field), normalized
Debarre-Fahlaoui curves, and a short list of sporadic genera that survive
the genus caps.  The table is encoded as data, exactly as established; the
finer genus endpoints are tabulated facts, not re-derived here.

:func:`audit` checks the table against what :mod:`lowdeg.numerology` and
:mod:`lowdeg.sym2_lattice` derive: the Debarre-Fahlaoui top genus, m range
(the domain of :class:`DFParams`) and effective classes, the plane-quartic
genus pi(4, 2), each sporadic and plane-quartic genus against its caps, the
d = 5 cap pi(20, 12), and the positive-rank flag against the mode.  It also
checks each cell's shape; a byte-exact test fixture pins the rest.  A failing
check never raises: a :class:`LowdegError` inside one is a failed row with the
message as its detail, so :func:`audit` raises only when :func:`classify`
refuses d.

``arithmetic=True`` classifies over the ground field; ``arithmetic=False``
classifies after base change to the algebraic closure, where the rank
condition on elliptic-curve targets disappears along with the arithmetic
sporadic cases.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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
    pullback = f"degree-{d} pullback of the rational points of"
    cases = [
        ClassificationCase(KIND_COVER_P1, {"degree": d}, f"{pullback} the projective line"),
        ClassificationCase(
            KIND_COVER_ELLIPTIC,
            {"degree": d, "requires_positive_rank": bool(arithmetic)},
            f"{pullback} a positive-rank elliptic curve"
            if arithmetic
            else f"degree-{d} pullback from an elliptic curve",
        ),
    ]
    if d >= 4 or (d == 3 and arithmetic):
        params = {"d": d, "m_min": 1, "m_max": d, "genus_max": df_genus(DFParams(d, 1))}
        provenance = (
            "Debarre-Fahlaoui 1993: normalization of an integral curve on the "
            "symmetric square of an elliptic curve, class (d+m)*section - m*fiber"
        )
        cases.append(ClassificationCase(KIND_DF, params, provenance))
    if arithmetic and d == 3:
        provenance = (
            "genus-3 smooth plane quartic with no rational point, "
            "positive-rank Jacobian, and at least one cubic point"
        )
        cases.append(ClassificationCase(KIND_PLANE_QUARTIC, {"genus": 3}, provenance))
    if arithmetic and d in SPORADIC_GENERA:
        rule = "Castelnuovo cap pi(20, 12)" if d == 5 else "genus cap (d-1)(d-2)/2 + 2"
        cap = sporadic_genus_cap(d)
        for genus in SPORADIC_GENERA[d]:
            provenance = f"{d}-minimal curve of genus {genus}; {rule} = {cap}"
            cases.append(ClassificationCase(KIND_SPORADIC, {"genus": genus}, provenance))
    return cases


def classification_json(d: int, arithmetic: bool = True) -> dict:
    """The wire format: {"d": ..., "mode": ..., "cases": [...]}."""
    return {
        "d": d,
        "mode": "arithmetic" if arithmetic else "geometric",
        "cases": [case._asdict() for case in classify(d, arithmetic)],
    }


def sporadic_genus_cap(d: int) -> int:
    """The cap that sporadic genera must respect: (d-1)(d-2)/2 + 2, and at
    d = 5 the larger of that and the Castelnuovo value pi(20, 12); both are 8."""
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


def _df_accepts(d: int, m: int) -> bool:
    try:
        DFParams(d, m)
    except LowdegError:
        return False
    return True


def audit(d: int) -> AuditReport:
    """Cross-check both table cells for degree d against the bound machinery;
    raises only when :func:`classify` refuses d."""
    cells = {"arithmetic": classify(d, arithmetic=True), "geometric": classify(d, arithmetic=False)}
    checks: list[AuditCheck] = []

    def run(name: str, detail: str, check: Callable[[], bool]) -> None:
        try:
            passed = check()
        except LowdegError as exc:
            passed, detail = False, str(exc)
        checks.append(AuditCheck(name=name, passed=passed, detail=detail))

    for mode, cases in cells.items():
        run(
            f"covers_present_{mode}",
            f"both degree-{d} cover cases listed first",
            lambda: [c.kind for c in cases[:2]] == [KIND_COVER_P1, KIND_COVER_ELLIPTIC]
            and all(c.params.get("degree") == d for c in cases[:2]),
        )
        run(
            f"provenance_{mode}",
            "every case carries a provenance annotation",
            lambda: all(c.provenance for c in cases),
        )
        elliptic = [c for c in cases if c.kind == KIND_COVER_ELLIPTIC]
        ranks = [c.params.get("requires_positive_rank") for c in elliptic]
        run(
            f"positive_rank_{mode}",
            f"the elliptic cover's requires_positive_rank {ranks} matches the {mode} mode",
            lambda: ranks == [mode == "arithmetic"],
        )

    geo_kinds = {c.kind for c in cells["geometric"]}
    arith_kinds = {c.kind for c in cells["arithmetic"]}
    run(
        "geometric_subset_of_arithmetic",
        f"geometric kinds {sorted(geo_kinds)} within arithmetic kinds {sorted(arith_kinds)}",
        lambda: geo_kinds <= arith_kinds,
    )

    bound = genus_bound_main(d)
    df_cases = [c for c in cells["arithmetic"] if c.kind == KIND_DF]
    if d == 2:
        run("no_df_for_d2", "no Debarre-Fahlaoui entry in the d = 2 cells", lambda: not df_cases)
    else:
        for case in df_cases:
            low, high, top = case.params["m_min"], case.params["m_max"], case.params["genus_max"]
            expected = df_genus(DFParams(d, 1))
            run(
                "df_genus_max",
                f"genus_max {top} equals the adjunction value "
                f"{expected} and the d(d-1)/2 + 1 ceiling {bound.bound_dagger}",
                lambda: top == expected == bound.bound_dagger,
            )
            run(
                "df_m_range",
                f"m from {low} to {high} is the domain of DFParams: "
                f"{low} and {high} accepted, {low - 1} and {high + 1} refused",
                lambda: [_df_accepts(d, m) for m in (low - 1, low, high, high + 1)]
                == [False, True, True, False],
            )
            run(
                "df_classes_effective",
                "every class in the m range is effective",
                lambda: all(is_effective(df_class(DFParams(d, m))) for m in range(low, high + 1)),
            )

    sporadic = [c for c in cells["arithmetic"] if c.kind in (KIND_SPORADIC, KIND_PLANE_QUARTIC)]
    if d == 2:
        run("no_sporadic_for_d2", "the d = 2 cells contain covers only", lambda: not sporadic)
    else:
        cap = sporadic_genus_cap(d)
        for case in sporadic:
            genus = case.params["genus"]
            run(
                f"sporadic_genus_{genus}_cap",
                f"genus {genus} within cap {cap} and overall ceiling {bound.overall}",
                lambda: genus <= cap and genus <= bound.overall,
            )
            if case.kind == KIND_PLANE_QUARTIC:
                pi = castelnuovo_pi(4, 2)
                run("plane_quartic_genus", f"genus {genus} is pi(4, 2) = {pi}", lambda: genus == pi)
    if d == 5:
        run(
            "castelnuovo_cap_value",
            "the d = 5 sporadic cap is the Castelnuovo value pi(20, 12) = 8",
            lambda: sporadic_genus_cap(5) == castelnuovo_pi(20, 12) == 8,
        )
    quartic_everywhere = [
        (dd, mode)
        for dd in (2, 3, 4, 5)
        for mode, flag in (("arithmetic", True), ("geometric", False))
        if any(c.kind == KIND_PLANE_QUARTIC for c in classify(dd, flag))
    ]
    run(
        "plane_quartic_only_d3_arithmetic",
        f"plane-quartic entries found at {quartic_everywhere}",
        lambda: quartic_everywhere == [(3, "arithmetic")],
    )
    return AuditReport(d=d, checks=tuple(checks))


def audit_json(d: int) -> dict:
    report = audit(d)
    checks = [c._asdict() for c in report.checks]
    return {"d": report.d, "passed": report.passed, "checks": checks}
