"""Distance kernels: point-to-segment, point-to-polyline, arc membership,
angles.

``point_segment_distance`` and ``point_polyline_distance`` are vectorized
over the query points (leading axes of ``y``); segment endpoints are single
points.  ``point_polyline_distance`` is the slow reference for
``arc_membership`` and is kept independent of it.

``arc_membership`` decides, for a batch of query rows, whether each row is
closer than its threshold to an arc given by an evaluator.  It refines a
uniform polyline of the arc from 17 vertices by doubling, up to
``ARC_CAP`` + 1 vertices, and keeps an active set of undecided rows.  After
each level a row's error is estimated by the change of its distance since
the previous level, ``err = |cur - prev|``; the row is decided once
``cur + err < thresh`` or ``cur - err > thresh``, or once
``err <= ARC_RTOL * (1 + cur)``.  This one-level difference is an estimate,
not a certified chord bound (the h^2 sup|c''| / 8 chord certificate is not
implemented): a row whose threshold lies within the polyline error the
estimate misses can be decided on the wrong side.  Rows still undecided at
the cap make the converged flag false.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

ARC_START_VERTICES = 17
ARC_CAP = 1 << 14
ARC_RTOL = 1e-9
# (segment, row, coordinate) elements per block of the polyline scan; a
# fixed budget keeps temporaries small whatever the batch size
BLOCK_ELEMENTS = 8192


def point_segment_distance(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from y (..., d) to the segment [a, b].

    Uses the projection parameter clamped to [0, 1]; degenerate segments
    (a == b) fall back to the point distance.
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(y - a, axis=-1)
    t = np.clip((y - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[..., None] * ab
    return np.linalg.norm(y - closest, axis=-1)


def segment_projection_parameter(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clamped projection parameter in [0, 1] of y onto [a, b]."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.zeros(y.shape[:-1])
    return np.clip((y - a) @ ab / denom, 0.0, 1.0)


def point_polyline_distance(y: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from y (..., d) to the polyline through ``vertices`` (K, d)."""
    vertices = np.asarray(vertices, dtype=float)
    if len(vertices) == 1:
        return np.linalg.norm(np.asarray(y, float) - vertices[0], axis=-1)
    best = None
    for a, b in zip(vertices[:-1], vertices[1:]):
        d = point_segment_distance(y, a, b)
        best = d if best is None else np.minimum(best, d)
    return best


def _arc_parameters(eps: float, sign: str, k: int) -> np.ndarray:
    """k uniform parameters on [0, eps] for sign '+', on [-eps, 0] for '-'."""
    return np.linspace(0.0, eps, k) if sign == "+" else np.linspace(-eps, 0.0, k)


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over the leading (coordinate) axis of u * v, in coordinate order."""
    out = u[0] * v[0]
    for c in range(1, len(u)):
        out += u[c] * v[c]
    return out


def _polyline_sq_min(vertices: Callable[[np.ndarray], np.ndarray],
                     z: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Squared distance from each row of z (n, d) to its polyline through
    ``vertices(ts)``, scanned in blocks of segments.

    ``vertices`` maps a block of parameters (B,) to vertices (B, n or 1, d).
    Each block is moved to coordinate-major layout (d, B, n or 1), so every
    product runs on contiguous arrays; the last vertex of each block is
    carried into the next, so every vertex is evaluated once.
    """
    n, d = z.shape
    step = max(1, BLOCK_ELEMENTS // max(1, n * d))
    zt = np.ascontiguousarray(z.T)[:, None]           # (d, 1, n)
    best = np.full(n, np.inf)
    prev = np.moveaxis(vertices(ts[:1]), -1, 0)
    for lo in range(1, len(ts), step):
        cur = np.ascontiguousarray(np.moveaxis(vertices(ts[lo:lo + step]), -1, 0))
        a = prev if cur.shape[1] == 1 else np.concatenate([prev, cur[:, :-1]], axis=1)
        ab = cur - a
        denom = _dot(ab, ab)
        t = _dot(zt - a, ab) / np.where(denom > 0, denom, 1.0)
        np.clip(t, 0.0, 1.0, out=t)
        diff = zt - (a + t * ab)
        np.minimum(best, _dot(diff, diff).min(axis=0), out=best)
        prev = cur[:, -1:]
    return best


def arc_membership(
    arc: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    z: np.ndarray,
    thresh: np.ndarray,
    eps: float,
    sign: str = "+",
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Distance from each row of z (n, d) to its arc, membership
    ``distance < thresh`` and a converged flag.

    ``arc(rows)`` returns the evaluator of the arcs of the given rows: it
    maps parameters ts (B,) on [0, eps] (or [-eps, 0] for sign '-') to
    vertices (B, len(rows), d), or (B, 1, d) when every row shares one arc.
    Refinement follows the per-row rule of the module docstring; converged
    is false when some row is still undecided at the cap.
    """
    z = np.asarray(z, dtype=float)
    thresh = np.asarray(thresh, dtype=float)
    rows = np.arange(len(z))
    k = ARC_START_VERTICES
    dist = np.sqrt(_polyline_sq_min(arc(rows), z, _arc_parameters(eps, sign, k)))
    while True:
        k = 2 * k - 1
        cur = np.sqrt(_polyline_sq_min(arc(rows), z[rows],
                                       _arc_parameters(eps, sign, k)))
        err = np.abs(cur - dist[rows])
        dist[rows] = cur
        decided = ((cur + err < thresh[rows])
                   | (cur - err > thresh[rows])
                   | (err <= ARC_RTOL * (1.0 + cur)))
        rows = rows[~decided]
        if len(rows) == 0 or k >= ARC_CAP:
            break
    return dist, dist < thresh, len(rows) == 0


def unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / n


def angle_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angle between unit vectors, accurate for small angles.

    ||a - b|| = 2 sin(theta / 2), which avoids the arccos precision cliff
    near zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    chord = np.linalg.norm(a - b, axis=-1)
    return 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
