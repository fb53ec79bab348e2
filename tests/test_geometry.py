"""Tests of the arc-membership kernel against the slow polyline oracle."""

import numpy as np
import pytest

from filterbench import flows as fl
from filterbench import geometry
from filterbench.geometry import arc_membership, point_polyline_distance

CAP_VERTICES = geometry.ARC_CAP + 1


def _curve_arc(c):
    """One shared arc for every row: vertices (B, 1, d)."""
    return lambda rows: lambda ts: c(ts)[:, None]


def _params(eps, sign, k=CAP_VERTICES):
    return np.linspace(0.0, eps, k) if sign == "+" else np.linspace(-eps, 0.0, k)


def _line(t):
    return np.stack([0.2 + 0.6 * t, -0.1 + 0.8 * t], axis=-1)


def _parabola(t):
    return np.stack([t, t ** 2], axis=-1)


def _circle(t):
    return np.stack([np.sin(t), 1.0 - np.cos(t)], axis=-1)


def _members_and_not(points, base, rng):
    """Query points around ``points`` at up to 0.6 times their distance from
    ``base``, with thresholds mu * d(base, z) as the filters set them."""
    w = rng.normal(size=points.shape)
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    reach = np.linalg.norm(points - base, axis=-1, keepdims=True)
    z = points + rng.uniform(0.0, 0.6, (len(points), 1)) * reach * w
    mu = rng.choice([0.1, 0.2, 0.3, 0.5], size=len(z))
    return z, mu * np.linalg.norm(z - base, axis=-1)


def _assert_matches_oracle(arc, z, thresh, eps, sign, oracle):
    """Every row converges, and membership equals the oracle's wherever the
    threshold is more than 1e-6 from the oracle distance."""
    dist, member, converged = arc_membership(arc, z, thresh, eps, sign)
    assert converged
    assert np.array_equal(member, dist < thresh)
    clear = np.abs(oracle - thresh) > 1e-6
    assert clear.sum() > 0.9 * len(z)
    assert 0.1 * len(z) < member.sum() < 0.9 * len(z)
    assert np.array_equal(member[clear], (oracle < thresh)[clear])


@pytest.mark.parametrize("curve,eps,sign", [
    (_line, 0.5, "+"), (_parabola, 0.4, "+"), (_parabola, 0.3, "-"),
    (_circle, 1.0, "+"), (_circle, 0.7, "-"),
])
def test_curve_membership_matches_cap_oracle(curve, eps, sign):
    rng = np.random.default_rng(1)
    on_arc = curve(rng.uniform(0.0, eps, 300) * (1 if sign == "+" else -1))
    z, thresh = _members_and_not(on_arc, curve(np.zeros(1)), rng)
    oracle = point_polyline_distance(z, curve(_params(eps, sign)))
    _assert_matches_oracle(_curve_arc(curve), z, thresh, eps, sign, oracle)


@pytest.mark.parametrize("name", ["translation", "rotation", "scaling"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_flow_membership_matches_cap_oracle(name, sign):
    flow = fl.BUILTIN_FLOWS[name]
    rng = np.random.default_rng(2)
    eps = 0.2
    # 12 query rows per base point share one oracle polyline
    x = np.repeat(rng.uniform(-1.0, 1.0, (4, 2)), 12, axis=0)
    t = rng.uniform(0.0, eps, len(x)) * (1 if sign == "+" else -1)
    on_orbit = np.stack([flow(ti, xi[None])[0] for ti, xi in zip(t, x)])
    z, thresh = _members_and_not(on_orbit, x, rng)
    vertices = np.stack([flow(s, x[::12]) for s in _params(eps, sign)])
    oracle = np.concatenate([
        point_polyline_distance(z[12 * i:12 * i + 12], vertices[:, i])
        for i in range(vertices.shape[1])])
    _assert_matches_oracle(fl._orbit_arcs(flow, x), z, thresh, eps, sign,
                           oracle)


@pytest.mark.xfail(strict=True, reason=(
    "the one-level difference is an estimate, not a chord-error bound, so a "
    "threshold close to the distance can be decided on the wrong side"))
@pytest.mark.parametrize("t0,radius,thresh_of", [
    # 1e-4 inside the unit circle: the 17- and 33-vertex chords sag 5e-4
    # and 1.2e-4 inwards, so both polylines pass within 2e-5 of the point
    (0.4305, 1.0 - 1e-4, lambda d: 0.97 * d),
    # outside, with the foot just past a vertex: the chord error halves per
    # level instead of quartering, so |d33 - d17| equals the error left
    (0.3792, 1.0872, lambda d: d + 1e-5),
])
def test_known_misdecisions_near_the_threshold(t0, radius, thresh_of):
    z = np.array([[0.0, 1.0]]) + radius * np.array([[np.sin(t0), -np.cos(t0)]])
    oracle = point_polyline_distance(z, _circle(_params(1.0, "+")))
    thresh = thresh_of(oracle)
    _, member, converged = arc_membership(_curve_arc(_circle), z, thresh, 1.0)
    assert converged
    assert member[0] == (oracle[0] < thresh[0])


@pytest.mark.parametrize("budget", [2, 6])
@pytest.mark.parametrize("n", [1, 3, 50, 700])
def test_block_budget_does_not_change_results(n, budget, monkeypatch):
    # 2-d rows: budget 2 scans one segment per block, so the first block is
    # a single segment; budget 6 with one row splits the 16 segments of the
    # first level into blocks of three with a short last one.  The default
    # scans that level in one block for n <= 256 and in blocks of five at
    # n = 700.
    rng = np.random.default_rng(3)
    z = _parabola(rng.uniform(0.0, 0.4, n)) + rng.normal(scale=0.05, size=(n, 2))
    thresh = rng.uniform(0.0, 0.1, n)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    flow = fl.BUILTIN_FLOWS["rotation"]
    cases = [(_curve_arc(_parabola), z, thresh, 0.4, "+"),
             (fl._orbit_arcs(flow, x), z, thresh, 0.3, "-")]
    default = [arc_membership(*case) for case in cases]
    monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", budget)
    small = [arc_membership(*case) for case in cases]
    for (d0, m0, c0), (d1, m1, c1) in zip(default, small):
        assert np.array_equal(d0, d1)
        assert np.array_equal(m0, m1)
        assert c0 == c1


def test_empty_batch_converges():
    dist, member, converged = arc_membership(
        fl._orbit_arcs(fl.BUILTIN_FLOWS["translation"], np.empty((0, 2))),
        np.empty((0, 2)), np.empty(0), 0.1)
    assert dist.shape == member.shape == (0,)
    assert converged


def test_row_ambiguous_at_the_cap_is_not_converged():
    # from the centre of a circle every inscribed polyline lies strictly
    # inside, at r cos(h/2) for angular step h: each level's distance falls
    # short of r by a third of its change since the previous level, so with
    # the threshold at the exact distance r no level can decide the row
    z = np.zeros((1, 2))
    circle = lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1)
    dist, _, converged = arc_membership(_curve_arc(circle), z, np.ones(1), 3.0)
    assert not converged
    assert 1.0 - 1e-7 < dist[0] < 1.0
    # the same row with a threshold clear of the distance is decided
    _, member, converged = arc_membership(_curve_arc(circle), z,
                                          np.array([0.9]), 3.0)
    assert converged and not member[0]


def _orbit_points_by_mask(flow, x, ts):
    """The per-time mask loop that _orbit_points replaces."""
    out = np.empty_like(x)
    scale = float(np.max(np.abs(ts))) or 1.0
    q = np.round(ts / scale, 3) * scale
    for t in np.unique(q):
        mask = q == t
        out[mask] = flow(float(t), x[mask])
    return out


@pytest.mark.parametrize("name", sorted(fl.BUILTIN_FLOWS))
def test_grouped_orbit_points_are_bit_identical(name):
    flow = fl.BUILTIN_FLOWS[name]
    rng = np.random.default_rng(5)
    x = rng.uniform(-1.0, 1.0, (3000, 2))
    ts = -rng.uniform(0.02, 0.1, len(x))
    got = fl._orbit_points(flow, x, ts)
    assert np.array_equal(got, _orbit_points_by_mask(flow, x, ts))
    if name != "linear_shear":  # a matrix product may round by batch shape
        scale = float(np.max(np.abs(ts)))
        q = np.round(ts / scale, 3) * scale
        rows = np.stack([flow(float(q[i]), x[i:i + 1])[0]
                         for i in range(len(x))])
        assert np.array_equal(got, rows)
