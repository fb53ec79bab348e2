"""Evaluable map specs with analytic Jacobians (and inverses where exact).

The built-ins cover the desk-check batteries: linear maps, shears, rotations
and a handful of fixed nonlinear diffeomorphisms in dimensions 2 and 3.
Vectorized over the leading axis: fn((N, d)) -> (N, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InverseResidualTooLarge, NotLipschitz


@dataclass(frozen=True)
class MapSpec:
    name: str
    dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]  # at a single point -> (d, d)
    inverse: Optional[Callable[[np.ndarray], np.ndarray]] = None

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
    a = np.asarray(a, dtype=float)
    inv = np.linalg.inv(a)
    return MapSpec(
        name or f"linear{a.shape[0]}d",
        a.shape[0],
        lambda x: x @ a.T,
        lambda x: a,
        lambda x: x @ inv.T,
    )


def rotation_map(theta: float) -> MapSpec:
    c, s = np.cos(theta), np.sin(theta)
    return linear_map(np.array([[c, -s], [s, c]]), name=f"rotation({theta:g})")


def shear_map(k: float) -> MapSpec:
    return linear_map(np.array([[1.0, k], [0.0, 1.0]]), name=f"shear({k:g})")


def builtin_nonlinear_maps() -> list[MapSpec]:
    """Fixed nonlinear diffeomorphisms with analytic Jacobians.

    The 2D ones are triangular shears with exact inverses; the 3D ones are
    triangular with unit Jacobian determinant.
    """
    maps = []
    maps.append(MapSpec(
        "parabolic_shear", 2,
        lambda p: np.stack([p[..., 0] + p[..., 1] ** 2, p[..., 1]], axis=-1),
        lambda p: np.array([[1.0, 2.0 * p[1]], [0.0, 1.0]]),
        lambda p: np.stack([p[..., 0] - p[..., 1] ** 2, p[..., 1]], axis=-1),
    ))
    maps.append(MapSpec(
        "sine_shear", 2,
        lambda p: np.stack([p[..., 0] + np.sin(p[..., 1]), p[..., 1]], axis=-1),
        lambda p: np.array([[1.0, np.cos(p[1])], [0.0, 1.0]]),
        lambda p: np.stack([p[..., 0] - np.sin(p[..., 1]), p[..., 1]], axis=-1),
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


def estimate_lipschitz(
    spec: MapSpec, region_low, region_high, rng: np.random.Generator,
) -> tuple[float, float]:
    """Sampled difference-quotient bounds (lower, upper) on a box region."""
    low = np.asarray(region_low, float)
    high = np.asarray(region_high, float)
    a = rng.uniform(low, high, size=(2000, spec.dim))
    b = a + rng.normal(scale=1e-3, size=a.shape)
    num = np.linalg.norm(spec(a) - spec(b), axis=-1)
    den = np.linalg.norm(a - b, axis=-1)
    keep = den > 0
    ratios = num[keep] / den[keep]
    upper = float(ratios.max())
    lower = float(ratios.min())
    if upper > 1e6:
        raise NotLipschitz("difference quotients exceed 1e+06")
    return lower, upper


BUILTIN_MAPS: dict[str, MapSpec] = {m.name: m for m in builtin_nonlinear_maps()}
BUILTIN_MAPS["identity2d"] = linear_map(np.eye(2), name="identity2d")
BUILTIN_MAPS["rotation_quarter"] = rotation_map(np.pi / 4)
BUILTIN_MAPS["shear_half"] = shear_map(0.5)
