"""Canonical JSON encoding and the on-disk formats for points and subspaces.

Rational scalars are strings ``"p/q"`` (``/q`` omitted when it is 1) and
prime-field scalars objects ``{"val": v, "mod": p}``.  A subspace is
``{"ambient": n, "rows": [[...]]}`` and a point configuration
``{"ambient": n, "points": [[...]]}``.  The readers decode and stop: they
check what the format owns (keys, ambients, row lengths against a declared
ambient, and one field per file) and return the field with rows of scalars,
for the caller to build points and subspaces from.  :func:`canonical_dumps`
is the one serializer, so emitted JSON re-serializes byte-identically after
a parse round trip.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Sequence

from .errors import MAX_INPUT, AmbientMismatchError, LowdegError, MixedFieldError, check_int

if TYPE_CHECKING:
    from .fields import Field, Scalar
    from .plane import PointConfig
    from .projective import ProjSubspace


def canonical_dumps(data: object) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def parse_matrix(raw_rows: object) -> tuple[Field, list[list[Scalar]]]:
    """Parse a list of rows of serialized scalars, enforcing one common field."""
    # The arithmetic modules load only when a scalar is read or written.
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
                raise MixedFieldError(f"entries mix {field!r} and {entry_field!r} in one matrix")
            row.append(value)
        rows.append(row)
    if field is None:
        raise LowdegError("matrix has no entries, so its field cannot be inferred")
    return field, rows


def subspace_to_json(s: ProjSubspace) -> dict:
    from .fields import scalar_to_json

    return {
        "ambient": s.ambient,
        "rows": [[scalar_to_json(s.field, x) for x in row] for row in s.rows],
    }


def point_config_to_json(config: PointConfig) -> dict:
    from .fields import scalar_to_json

    return {
        "ambient": config.ambient,
        "points": [
            [scalar_to_json(config.field, x) for x in p.coords] for p in config.points
        ],
    }


def points_from_json(obj: object) -> tuple[Field, list[list[Scalar]]]:
    """The field and coordinate rows of a point configuration document."""
    if not isinstance(obj, dict) or "points" not in obj:
        raise LowdegError("a point configuration needs a 'points' key")
    ambient = obj.get("ambient")
    width = None if ambient is None else check_int("ambient", ambient, 0, MAX_INPUT) + 1
    field, rows = parse_matrix(obj["points"])
    for row in rows:
        if width is not None and len(row) != width:
            raise LowdegError(f"point of length {len(row)} does not match ambient {ambient}")
    return field, rows


def subspaces_from_json(obj: object) -> tuple[Field | None, list[tuple[int, list[list[Scalar]]]]]:
    """The field and each member's ``(ambient, rows)``; the field is None for no members."""
    from .fields import require_same_field

    if not isinstance(obj, dict) or "subspaces" not in obj:
        raise LowdegError("expected a 'subspaces' key holding a list of subspaces")
    raw = obj["subspaces"]
    if not isinstance(raw, list):
        raise LowdegError("'subspaces' must be a list")
    field: Field | None = None
    members = []
    for item in raw:
        if not isinstance(item, dict) or "ambient" not in item or "rows" not in item:
            raise LowdegError("a subspace needs 'ambient' and 'rows' keys")
        ambient = check_int("ambient", item["ambient"], 0, MAX_INPUT)
        member_field, rows = parse_matrix(item["rows"])
        for row in rows:
            if len(row) != ambient + 1:
                raise AmbientMismatchError(
                    f"vector of length {len(row)} cannot span inside P^{ambient}"
                )
        # The first member fixes the field: a file over many primes stops at the second.
        field = member_field if field is None else require_same_field(field, member_field)
        members.append((ambient, rows))
    return field, members


def subspaces_to_json(subspaces: Sequence[ProjSubspace]) -> dict:
    return {"subspaces": [subspace_to_json(s) for s in subspaces]}
