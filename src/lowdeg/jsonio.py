"""Canonical JSON encoding and the on-disk formats for points and subspaces.

Scalars over the rationals are serialized as strings ``"p/q"`` (the ``/q``
omitted when the denominator is 1); prime-field scalars as objects
``{"val": v, "mod": p}``.  A subspace is ``{"ambient": n, "rows": [[...]]}``
and a point configuration ``{"ambient": n, "points": [[...]]}``.  All
entries of one file must come from a single field.

:func:`canonical_dumps` is the one serializer used everywhere, so emitted
JSON re-serializes byte-identically after a parse round trip.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .errors import LowdegError, MixedFieldError

if TYPE_CHECKING:
    from .configurations import PointConfig
    from .fields import Field, Scalar
    from .projective import ProjSubspace


def canonical_dumps(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def parse_matrix(raw_rows: object) -> tuple[Field, list[list[Scalar]]]:
    """Parse a list of rows of serialized scalars, enforcing one common field."""
    # The arithmetic modules load only when a scalar is read or written, not for
    # canonical_dumps; the geometry modules only in the readers that build them.
    from .fields import scalar_from_json

    if not isinstance(raw_rows, list) or not all(isinstance(r, list) for r in raw_rows):
        raise LowdegError("expected a list of rows")
    field: Field | None = None
    rows: list[list[Scalar]] = []
    for raw_row in raw_rows:
        row = []
        for raw in raw_row:
            entry_field, value = scalar_from_json(raw)
            if field is None:
                field = entry_field
            elif field != entry_field:
                raise MixedFieldError(
                    f"entries mix {field!r} and {entry_field!r} in one matrix"
                )
            row.append(value)
        rows.append(row)
    if field is None:
        raise LowdegError("matrix has no entries, so its field cannot be inferred")
    return field, rows


def _check_ambient(ambient: object) -> int:
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 0:
        raise LowdegError(f"bad ambient dimension {ambient!r}")
    return ambient


def subspace_to_json(s: ProjSubspace) -> dict:
    from .fields import scalar_to_json

    return {
        "ambient": s.ambient,
        "rows": [[scalar_to_json(s.field, x) for x in row] for row in s.rows],
    }


def subspace_from_json(obj: object) -> ProjSubspace:
    from .projective import ProjSubspace

    if not isinstance(obj, dict) or "ambient" not in obj or "rows" not in obj:
        raise LowdegError("a subspace needs 'ambient' and 'rows' keys")
    ambient = _check_ambient(obj["ambient"])
    field, rows = parse_matrix(obj["rows"])
    return ProjSubspace.from_vectors(field, ambient, rows)


def point_config_to_json(config: PointConfig) -> dict:
    from .fields import scalar_to_json

    return {
        "ambient": config.ambient,
        "points": [
            [scalar_to_json(config.field, x) for x in p.coords] for p in config.points
        ],
    }


def point_config_from_json(obj: object) -> PointConfig:
    from .configurations import PointConfig
    from .projective import ProjPoint

    if not isinstance(obj, dict) or "points" not in obj:
        raise LowdegError("a point configuration needs a 'points' key")
    ambient = obj.get("ambient")
    if ambient is not None:
        _check_ambient(ambient)
    field, rows = parse_matrix(obj["points"])
    points = []
    for row in rows:
        if ambient is not None and len(row) != ambient + 1:
            raise LowdegError(
                f"point of length {len(row)} does not match ambient {ambient}"
            )
        points.append(ProjPoint(field, tuple(row)))
    return PointConfig(tuple(points))


def subspaces_from_json(obj: object) -> list[ProjSubspace]:
    if not isinstance(obj, dict) or "subspaces" not in obj:
        raise LowdegError("expected a 'subspaces' key holding a list of subspaces")
    raw = obj["subspaces"]
    if not isinstance(raw, list):
        raise LowdegError("'subspaces' must be a list")
    return [subspace_from_json(item) for item in raw]


def subspaces_to_json(subspaces: Sequence[ProjSubspace]) -> dict:
    return {"subspaces": [subspace_to_json(s) for s in subspaces]}
