"""Distance kernels: point-to-segment, point-to-polyline, arc membership,
angles.

``point_segment_distance`` and ``point_polyline_distance`` are vectorized
over the query points (leading axes of ``y``); segment endpoints are single
points.  ``point_polyline_distance`` is the slow reference for
``arc_membership`` and is kept independent of it.

``arc_membership`` decides, for a batch of query rows, whether each row is
closer than its threshold to an arc given by an evaluator.  It refines a
uniform polyline of the arc from the chord by doubling its segments,
k = 2, 3, 5, 9, ..., 2k - 1, up to ``ARC_CAP`` + 1 vertices, and keeps an
active set of undecided rows.  At a level of k vertices the parameter step
is h = eps / (k - 1), and the polyline lies within the chord bound
h^2 C / 8 of the arc, where C is the caller's bound on sup|c''| on the
row's arc (de Boor, *A Practical Guide to Splines*, 1978, ch. 2); so the
row's distance d to the polyline is within that bound of its distance to
the arc.  A row is decided once ``|d - thresh| > h^2 C / 8``, or once
``h^2 C / 8 <= ARC_RTOL * (1 + d)``: certified up to floating-point
rounding whenever C is, and at the chord when C = 0.  Rows still undecided
at the cap make the converged flag false.

Temporaries stay within ``BLOCK_ELEMENTS`` elements whatever the batch
size.  ``arc_membership`` runs its level loop on blocks of at most
``BLOCK_ELEMENTS // d`` rows, and the polyline scan of a block takes as
many segments at a time as keep a (segment, row, coordinate) block within
the budget, so every evaluated vertex block holds at most
``BLOCK_ELEMENTS`` elements.  Rows are independent, and a shared arc is
the same for every block, so the blocks change no bit of any distance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

ARC_CAP = 1 << 14
ARC_RTOL = 1e-9
# (segment, row, coordinate) elements per block of the polyline scan: rows
# are blocked to BLOCK_ELEMENTS // d and segments to what fits beside them,
# so temporaries stay small whatever the batch size
BLOCK_ELEMENTS = 8192


def point_segment_distance(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from y (..., d) to the segment [a, b].

    Uses the projection parameter clamped to [0, 1]; degenerate segments
    (a == b) fall back to the point distance.
    """
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    ab = np.asarray(b, dtype=float) - a
    closest = a + _clamped_parameter(y, a, ab)[..., None] * ab
    return np.linalg.norm(y - closest, axis=-1)


def segment_projection_parameter(y: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Clamped projection parameter in [0, 1] of y onto [a, b]."""
    a = np.asarray(a, dtype=float)
    return _clamped_parameter(np.asarray(y, dtype=float), a, np.asarray(b, dtype=float) - a)


def _clamped_parameter(y: np.ndarray, a: np.ndarray, ab: np.ndarray) -> np.ndarray:
    """Projection parameter of y onto a + [0, 1] ab, clamped; 0 when ab = 0.

    Shared by both public kernels rather than one calling the other, so a
    profiler that wraps the public names counts each call once."""
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


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum over the leading (coordinate) axis of u * v, in coordinate order;
    u and v may also be lists of per-coordinate arrays."""
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
    arc: Callable[[np.ndarray], tuple[Callable[[np.ndarray], np.ndarray],
                                      np.ndarray]],
    z: np.ndarray,
    thresh: np.ndarray,
    eps: float,
    sign: str = "+",
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Distance from each row of z (n, d) to its arc, membership
    ``distance < thresh`` and a converged flag.

    ``arc(rows)`` returns ``(evaluate, curvature)`` for the arcs of the
    given rows.  ``evaluate`` maps parameters ts (B,) on [0, eps] (or
    [-eps, 0] for sign '-') to vertices (B, len(rows), d), or (B, 1, d) when
    every row shares one arc.  ``curvature`` bounds sup|c''| per row
    (len(rows),).  Refinement follows the per-row rule of the module
    docstring from the chord; converged is false when some row is still
    undecided at the cap.  Each block of at most ``BLOCK_ELEMENTS // d``
    rows runs its own levels, and ``arc`` receives row indices into z.
    """
    z = np.asarray(z, dtype=float)
    thresh = np.asarray(thresh, dtype=float)
    dist = np.empty(len(z))
    block = max(1, BLOCK_ELEMENTS // max(1, z.shape[-1]))
    span = (0.0, eps) if sign == "+" else (-eps, 0.0)
    converged = True
    # an empty batch runs one empty block, so a bad eps still raises
    for lo in range(0, max(1, len(z)), block):
        rows = np.arange(lo, min(lo + block, len(z)))
        k = 2
        while True:
            evaluate, curvature = arc(rows)
            h = eps / (k - 1)
            cur = dist[rows] = np.sqrt(_polyline_sq_min(
                evaluate, z[rows], np.linspace(*span, k)))
            bound = h * h * curvature / 8.0
            decided = ((np.abs(cur - thresh[rows]) > bound)
                       | (bound <= ARC_RTOL * (1.0 + cur)))
            rows = rows[~decided]
            if len(rows) == 0 or k >= ARC_CAP:
                break
            k = 2 * k - 1
        converged &= len(rows) == 0
    return dist, dist < thresh, converged


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
