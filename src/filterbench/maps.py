"""Evaluable map specs with analytic Jacobians (and inverses where exact).

The built-ins cover the desk-check batteries: linear maps, shears, rotations
and a handful of fixed nonlinear diffeomorphisms in dimensions 2 and 3.
Vectorized over the leading axis: fn((N, d)) -> (N, d).

Linear maps, ``parabolic_shear`` and ``sine_shear`` also declare bounds on
their derivatives, which certify the curvature of pushed-forward flow
orbits (flows.pushforward_flow); the other maps declare none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InverseResidualTooLarge, NotLipschitz


@dataclass(frozen=True)
class MapSpec:
    """A map f with its Jacobian at a single point, (d,) -> (d, d), and its
    inverse where exact.

    Two optional declared bounds, None when unknown:
    ``hessian_bound`` H with |D^2 f(p)[v, v]| <= H |v|^2 for every p and v;
    ``jacobian_bound(p, r)`` bounding the spectral norm |Df|_2 over the ball
    B(p_i, r_i) for each row of p (N, d), with r a radius or one per row.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian_bound: Optional[float] = None
    jacobian_bound: Optional[
        Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))

    def check_inverse(self, points: np.ndarray) -> None:
        if self.inverse is None:
            raise InverseResidualTooLarge(f"map {self.name} carries no inverse")
        residual = np.max(
            np.linalg.norm(self.fn(self.inverse(points)) - points, axis=-1)
        )
        if residual > 1e-9:
            raise InverseResidualTooLarge(
                f"f(f^-1(x)) deviates by {residual:.3e} for map {self.name}"
            )


def linear_map(a: np.ndarray, name: str | None = None) -> MapSpec:
    """x -> A x: D^2 f = 0, and |Df|_2 = |A|_2 everywhere."""
    a = np.asarray(a, dtype=float)
    inv = np.linalg.inv(a)
    return MapSpec(
        name or f"linear{a.shape[0]}d",
        a.shape[0],
        lambda x: x @ a.T,
        lambda x: a,
        lambda x: x @ inv.T,
        hessian_bound=0.0,
        # an SVD per call, not here: most linear maps are never pushed along
        jacobian_bound=lambda p, r: np.full(len(p), np.linalg.norm(a, 2)),
    )


def rotation_map(theta: float) -> MapSpec:
    c, s = np.cos(theta), np.sin(theta)
    return linear_map(np.array([[c, -s], [s, c]]), name=f"rotation({theta:g})")


def shear_map(k: float) -> MapSpec:
    return linear_map(np.array([[1.0, k], [0.0, 1.0]]), name=f"shear({k:g})")


def _shear_norm(k):
    """Spectral norm of [[1, k], [0, 1]], increasing in |k|."""
    k = np.abs(k)
    return (k + np.sqrt(k * k + 4.0)) / 2.0


def builtin_nonlinear_maps() -> list[MapSpec]:
    """Fixed nonlinear diffeomorphisms with analytic Jacobians.

    The 2D ones are triangular shears with exact inverses; the 3D ones are
    triangular with unit Jacobian determinant.  ``parabolic_shear`` and
    ``sine_shear`` declare their derivative bounds: D^2 f[v, v] is
    (2 v_1^2, 0) and (-sin(p_1) v_1^2, 0), and Df = [[1, k], [0, 1]] with
    k = 2 p_1, at most 2 (|p_1| + r) on B(p, r), and k = cos(p_1).
    """
    maps = []
    maps.append(MapSpec(
        "parabolic_shear", 2,
        lambda p: np.stack([p[..., 0] + p[..., 1] ** 2, p[..., 1]], axis=-1),
        lambda p: np.array([[1.0, 2.0 * p[1]], [0.0, 1.0]]),
        lambda p: np.stack([p[..., 0] - p[..., 1] ** 2, p[..., 1]], axis=-1),
        hessian_bound=2.0,
        jacobian_bound=lambda p, r: _shear_norm(2.0 * (np.abs(p[:, 1]) + r)),
    ))
    maps.append(MapSpec(
        "sine_shear", 2,
        lambda p: np.stack([p[..., 0] + np.sin(p[..., 1]), p[..., 1]], axis=-1),
        lambda p: np.array([[1.0, np.cos(p[1])], [0.0, 1.0]]),
        lambda p: np.stack([p[..., 0] - np.sin(p[..., 1]), p[..., 1]], axis=-1),
        hessian_bound=1.0,
        jacobian_bound=lambda p, r: np.full(len(p), _shear_norm(1.0)),
    ))
    maps.append(MapSpec(
        "cubic_shear", 2,
        lambda p: np.stack([p[..., 0] + p[..., 1] ** 3, p[..., 1]], axis=-1),
        lambda p: np.array([[1.0, 3.0 * p[1] ** 2], [0.0, 1.0]]),
        lambda p: np.stack([p[..., 0] - p[..., 1] ** 3, p[..., 1]], axis=-1),
    ))
    maps.append(MapSpec(
        "vertical_parabolic_shear", 2,
        lambda p: np.stack([p[..., 0], p[..., 1] + p[..., 0] ** 2], axis=-1),
        lambda p: np.array([[1.0, 0.0], [2.0 * p[0], 1.0]]),
        lambda p: np.stack([p[..., 0], p[..., 1] - p[..., 0] ** 2], axis=-1),
    ))
    maps.append(MapSpec(
        "exp_stretch", 2,
        lambda p: np.stack(
            [p[..., 0] * np.exp(0.2 * p[..., 1]), p[..., 1]], axis=-1),
        lambda p: np.array(
            [[np.exp(0.2 * p[1]), 0.2 * p[0] * np.exp(0.2 * p[1])], [0.0, 1.0]]),
        lambda p: np.stack(
            [p[..., 0] * np.exp(-0.2 * p[..., 1]), p[..., 1]], axis=-1),
    ))
    maps.append(MapSpec(
        "coupled_sine", 2,
        lambda p: np.stack(
            [p[..., 0] + 0.3 * np.sin(p[..., 1]),
             p[..., 1] + 0.3 * np.sin(p[..., 0])], axis=-1),
        lambda p: np.array(
            [[1.0, 0.3 * np.cos(p[1])], [0.3 * np.cos(p[0]), 1.0]]),
    ))
    maps.append(MapSpec(
        "double_parabolic_shear_3d", 3,
        lambda p: np.stack(
            [p[..., 0] + p[..., 1] ** 2, p[..., 1] + p[..., 2] ** 2,
             p[..., 2]], axis=-1),
        lambda p: np.array(
            [[1.0, 2.0 * p[1], 0.0], [0.0, 1.0, 2.0 * p[2]], [0.0, 0.0, 1.0]]),
        lambda p: np.stack(
            [p[..., 0] - (p[..., 1] - p[..., 2] ** 2) ** 2,
             p[..., 1] - p[..., 2] ** 2, p[..., 2]], axis=-1),
    ))
    maps.append(MapSpec(
        "sine_ladder_3d", 3,
        lambda p: np.stack(
            [p[..., 0] + np.sin(p[..., 2]), p[..., 1] + np.sin(p[..., 0]),
             p[..., 2]], axis=-1),
        lambda p: np.array(
            [[1.0, 0.0, np.cos(p[2])],
             [np.cos(p[0]), 1.0, 0.0],
             [0.0, 0.0, 1.0]]),
    ))
    maps.append(MapSpec(
        "cubic_twist_3d", 3,
        lambda p: np.stack(
            [p[..., 0], p[..., 1] + p[..., 0] ** 3,
             p[..., 2] + p[..., 0] * p[..., 1]], axis=-1),
        lambda p: np.array(
            [[1.0, 0.0, 0.0], [3.0 * p[0] ** 2, 1.0, 0.0], [p[1], p[0], 1.0]]),
    ))
    maps.append(MapSpec(
        "mixed_shear_3d", 3,
        lambda p: np.stack(
            [p[..., 0] + 0.5 * p[..., 2] ** 2, p[..., 1] - p[..., 2] ** 3,
             p[..., 2]], axis=-1),
        lambda p: np.array(
            [[1.0, 0.0, p[2]], [0.0, 1.0, -3.0 * p[2] ** 2], [0.0, 0.0, 1.0]]),
        lambda p: np.stack(
            [p[..., 0] - 0.5 * p[..., 2] ** 2, p[..., 1] + p[..., 2] ** 3,
             p[..., 2]], axis=-1),
    ))
    return maps


def estimate_lipschitz(fn: Callable[[np.ndarray], np.ndarray], dim: int,
                       rng: np.random.Generator) -> float:
    """Sampled difference-quotient upper bound on Lip(fn) over the box
    [-1.5, 1.5]^dim: 2000 uniform points, each against a 1e-3 normal step."""
    a = rng.uniform(-1.5, 1.5, size=(2000, dim))
    b = a + rng.normal(scale=1e-3, size=a.shape)
    num = np.linalg.norm(fn(a) - fn(b), axis=-1)
    den = np.linalg.norm(a - b, axis=-1)
    keep = den > 0
    upper = float((num[keep] / den[keep]).max())
    if upper > 1e6:
        raise NotLipschitz("difference quotients exceed 1e+06")
    return upper


BUILTIN_MAPS: dict[str, MapSpec] = {m.name: m for m in builtin_nonlinear_maps()}
BUILTIN_MAPS["identity2d"] = linear_map(np.eye(2), name="identity2d")
BUILTIN_MAPS["rotation_quarter"] = rotation_map(np.pi / 4)
BUILTIN_MAPS["shear_half"] = shear_map(0.5)
