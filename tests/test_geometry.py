"""Tests of the arc-membership kernel against the slow polyline oracle and
against the exact orbits of the built-in flows and of one pushed-forward
flow, and of the flows' declared curvature and speed bounds."""

import dataclasses

import numpy as np
import pytest

from filterbench import flows as fl
from filterbench import geometry
from filterbench.geometry import (
    arc_membership,
    point_polyline_distance,
    point_segment_distance,
)
from filterbench.maps import BUILTIN_MAPS

CAP_VERTICES = geometry.ARC_CAP + 1


def _curve_arc(c, curvature):
    """One shared arc for every row: vertices (B, 1, d), with the declared
    curvature bound for every row."""
    return lambda rows: ((lambda ts: c(ts)[:, None]),
                         np.full(len(rows), curvature))


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


# each curve with its exact sup|c''|
CURVES = {"line": (_line, 0.0), "parabola": (_parabola, 2.0),
          "circle": (_circle, 1.0)}


@pytest.mark.parametrize("name,eps,sign", [
    ("line", 0.5, "+"), ("parabola", 0.4, "+"), ("parabola", 0.3, "-"),
    ("circle", 1.0, "+"), ("circle", 0.7, "-"),
])
def test_curve_membership_matches_cap_oracle(name, eps, sign):
    curve, curvature = CURVES[name]
    rng = np.random.default_rng(1)
    on_arc = curve(rng.uniform(0.0, eps, 300) * (1 if sign == "+" else -1))
    z, thresh = _members_and_not(on_arc, curve(np.zeros(1)), rng)
    oracle = point_polyline_distance(z, curve(_params(eps, sign)))
    _assert_matches_oracle(_curve_arc(curve, curvature), z, thresh, eps, sign,
                           oracle)


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
    _assert_matches_oracle(fl._orbit_arcs(flow, x, eps), z, thresh, eps,
                           sign, oracle)


# rows that a one-level-difference rule, |d33 - d17| as the error, decides
# on the wrong side; the chord bound decides both correctly
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
    # the unit circle's exact sup|c''| = 1, and twice that, the margin
    # metric_filters.CurveFilter gives its estimate
    for arc in (_curve_arc(_circle, 1.0), _curve_arc(_circle, 2.0)):
        _, member, converged = arc_membership(arc, z, thresh, 1.0)
        assert converged
        assert member[0] == (oracle[0] < thresh[0])


@pytest.mark.parametrize("budget", [2, 6])
@pytest.mark.parametrize("n", [1, 3, 50, 700])
def test_block_budget_does_not_change_results(n, budget, monkeypatch):
    # 2-d rows: budget 2 scans one row and one segment per block, so every
    # block is a single segment; budget 6 refines blocks of three rows and,
    # with one row, splits the 2^j segments of each level past the chord
    # into blocks of three with a short last one.  The default scans 16
    # segments in one block for n <= 256 and in blocks of five at n = 700.
    rng = np.random.default_rng(3)
    z = _parabola(rng.uniform(0.0, 0.4, n)) + rng.normal(scale=0.05, size=(n, 2))
    thresh = rng.uniform(0.0, 0.1, n)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    flow = fl.BUILTIN_FLOWS["rotation"]
    cases = [(_curve_arc(_parabola, 2.0), z, thresh, 0.4, "+"),
             (fl._orbit_arcs(flow, x, 0.3), z, thresh, 0.3, "-")]
    default = [arc_membership(*case) for case in cases]
    monkeypatch.setattr(geometry, "BLOCK_ELEMENTS", budget)
    small = [arc_membership(*case) for case in cases]
    for (d0, m0, c0), (d1, m1, c1) in zip(default, small):
        assert np.array_equal(d0, d1)
        assert np.array_equal(m0, m1)
        assert c0 == c1


def _ambiguous_rotation_rows(rng, n):
    """n rows near the rotation's orbit arcs on [0, 1], thresholds
    0.3 d(x, y), and last a row no level decides: x = (3, 0) and
    y = F(1/2, x), which is a vertex of every level from 3 vertices on,
    against the threshold 0.  Its polyline distance, 3 (1 - cos(1/2)) =
    0.37 at the chord and 0 after, stays inside the chord bound
    h^2 |x| / 8: 3/8 at the chord, and 1.4e-9 at the cap, above the
    tolerance 1e-9."""
    flow = fl.BUILTIN_FLOWS["rotation"]
    x = rng.uniform(-1.0, 1.0, (n, 2))
    y = flow(rng.uniform(0.0, 1.0, n), x) + rng.normal(scale=0.05, size=x.shape)
    x[-1] = (3.0, 0.0)
    y[-1] = flow(0.5, x[-1:])[0]
    thresh = 0.3 * np.linalg.norm(y - x, axis=-1)
    thresh[-1] = 0.0
    return x, y, thresh


def test_row_blocks_are_invisible(monkeypatch):
    # two full row blocks and three rows more.  One call gives, bit for bit,
    # the distances and memberships of separate calls on the blocks' rows,
    # and of one call that scans every row at once; its converged flag is
    # the AND of the blocks'.  The last row of the rotation and of the
    # shared circle arc is undecided at the cap, so the last block alone is
    # unconverged; the orbits pushed by exp_stretch all converge.
    per_block = geometry.BLOCK_ELEMENTS // 2
    n = 2 * per_block + 3
    rng = np.random.default_rng(12)
    x, y, thresh = _ambiguous_rotation_rows(rng, n)
    pushed = fl.pushforward_flow(BUILTIN_MAPS["exp_stretch"],
                                 fl.BUILTIN_FLOWS["rotation"])
    xp, yp = _near_orbits(pushed, rng, n)
    circle = lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1)
    zc = circle(rng.uniform(0.0, 3.0, n)) * rng.uniform(0.8, 1.2, (n, 1))
    zc[-1] = 0.0
    tc = rng.uniform(0.0, 0.3, n)
    tc[-1] = 1.0
    cases = [  # (arc of the rows of a batch, z, thresh, eps, converged)
        (lambda rows: fl._orbit_arcs(fl.BUILTIN_FLOWS["rotation"], x[rows],
                                     1.0), y, thresh, 1.0, [True, True, False]),
        (lambda rows: fl._orbit_arcs(pushed, xp[rows], 0.1), yp,
         0.3 * np.linalg.norm(yp - xp, axis=-1), 0.1, [True, True, True]),
        (lambda rows: _curve_arc(circle, 2.0), zc, tc, 3.0,
         [True, True, False]),
    ]
    blocks = [slice(0, per_block), slice(per_block, 2 * per_block),
              slice(2 * per_block, n)]
    for arc_of, z, th, eps, block_converged in cases:
        everything = np.arange(n)
        dist, member, converged = arc_membership(arc_of(everything), z, th, eps)
        parts = [arc_membership(arc_of(everything[b]), z[b], th[b], eps)
                 for b in blocks]
        assert dist.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
        assert np.array_equal(member, np.concatenate([p[1] for p in parts]))
        assert [p[2] for p in parts] == block_converged
        assert converged == all(block_converged)
        assert 0 < member.sum() < n
        with monkeypatch.context() as m:
            m.setattr(geometry, "BLOCK_ELEMENTS", 1 << 40)
            whole = arc_membership(arc_of(everything), z, th, eps)
        assert whole[0].tobytes() == dist.tobytes()
        assert whole[2] == converged


def test_vertex_blocks_stay_within_the_budget():
    # BLOCK_ELEMENTS bounds every vertex block the evaluator returns, here
    # for 20 000 rows on rotation orbits and on their images under
    # exp_stretch
    rng = np.random.default_rng(13)
    pushed = fl.pushforward_flow(BUILTIN_MAPS["exp_stretch"],
                                 fl.BUILTIN_FLOWS["rotation"])
    for flow in (fl.BUILTIN_FLOWS["rotation"], pushed):
        x, y = _near_orbits(flow, rng, 20_000)
        sizes = []

        def arc(rows, bind=fl._orbit_arcs(flow, x, 0.1)):
            evaluate, curvature = bind(rows)

            def recorded(ts):
                vertices = evaluate(ts)
                sizes.append(vertices.size)
                return vertices
            return recorded, curvature

        _, member, converged = arc_membership(
            arc, y, 0.3 * np.linalg.norm(y - x, axis=-1), 0.1)
        assert converged and 0 < member.sum() < len(x)
        assert sizes and max(sizes) <= geometry.BLOCK_ELEMENTS


@pytest.mark.parametrize("n", [1, 300, 4096])
def test_polyline_scan_blocks_stay_within_the_budget(n):
    # one deep level of 1025 vertices for up to the BLOCK_ELEMENTS // 2 rows
    # of one arc_membership block: the scan splits it into vertex blocks
    # within the budget
    z = np.random.default_rng(14).uniform(-1.0, 1.0, (n, 2))
    sizes = []

    def vertices(ts):
        sizes.append(len(ts) * n * 2)
        return np.broadcast_to(_circle(ts)[:, None], (len(ts), n, 2))

    best = geometry._polyline_sq_min(vertices, z, np.linspace(0.0, 1.0, 1025))
    assert max(sizes) <= geometry.BLOCK_ELEMENTS and len(sizes) > 1
    assert np.allclose(best, point_polyline_distance(
        z, _circle(np.linspace(0.0, 1.0, 1025))) ** 2)


def test_empty_batch_converges():
    dist, member, converged = arc_membership(
        fl._orbit_arcs(fl.BUILTIN_FLOWS["translation"], np.empty((0, 2)), 0.1),
        np.empty((0, 2)), np.empty(0), 0.1)
    assert dist.shape == member.shape == (0,)
    assert converged


@pytest.mark.parametrize("curvature", [0.0, 2.0])
def test_zero_length_arc_is_decided(curvature):
    # eps = 0: every vertex is the base point, so the polyline is exact
    z = np.array([[0.1, 0.2], [0.0, 0.0]])
    dist, member, converged = arc_membership(
        _curve_arc(_parabola, curvature), z, np.array([0.3, 0.0]), 0.0)
    assert converged
    assert np.array_equal(dist, np.linalg.norm(z, axis=-1))
    assert member.tolist() == [True, False]


def test_row_ambiguous_at_the_cap_is_not_converged():
    # from the centre of the unit circle every inscribed polyline lies
    # strictly inside, at cos(h/2) ~ 1 - h^2/8 for step h.  With the bound
    # C = 2, twice sup|c''| = 1, the chord bound h^2/4 never clears the
    # threshold at the exact distance 1, and at the cap (h = 3/2^14) it is
    # still 8e-9, above the tolerance 1e-9 (1 + d): no level can decide the
    # row.  (With C = 1 the margin h^2/8 - (1 - cos(h/2)) = h^4/384 falls
    # below the rounding of d near h = 4e-4, and rounding decides the row.)
    z = np.zeros((1, 2))
    circle = _curve_arc(lambda t: np.stack([np.cos(t), np.sin(t)], axis=-1),
                        2.0)
    dist, _, converged = arc_membership(circle, z, np.ones(1), 3.0)
    assert not converged
    assert 1.0 - 1e-7 < dist[0] < 1.0
    # the same row with a threshold clear of the distance is decided
    _, member, converged = arc_membership(circle, z, np.array([0.9]), 3.0)
    assert converged and not member[0]


# --- exact orbits ------------------------------------------------------------

def _segment_orbit(step):
    """Exact distance from y to the orbit x + t step(x), t in [lo, hi]."""
    def distance(x, y, lo, hi):
        s = step(x)
        return point_segment_distance(y, x + lo * s, x + hi * s)
    return distance


def _circle_orbit(omega):
    """Exact distance from y to the rotation orbit R(omega t) x, t in
    [lo, hi]: ||y| - |x|| where y's angle lies in the arc's angular span,
    else the nearer end."""
    def distance(x, y, lo, hi):
        r = np.linalg.norm(x)
        start = np.arctan2(x[1], x[0]) + min(omega * lo, omega * hi)
        span = abs(omega) * (hi - lo)
        phi = (np.arctan2(y[:, 1], y[:, 0]) - start) % (2 * np.pi)
        ends = [np.linalg.norm(y - r * np.array([np.cos(a), np.sin(a)]),
                               axis=-1) for a in (start, start + span)]
        return np.where(phi <= span, np.abs(np.linalg.norm(y, axis=-1) - r),
                        np.minimum(*ends))
    return distance


def _shear_step(x):
    return np.array([x[1], 0.0])    # exp(t g) x = x + t g x, g^2 = 0


def _parabola_orbit(x, y, lo, hi):
    """Exact distance from y to the orbit (q_0 + s^2, s), s = x_1 + t in
    [x_1 + lo, x_1 + hi], q_0 = x_0 - x_1^2: the nearest of the arc's ends
    and the real parts of the roots of the derivative of the squared
    distance, 4 s^3 + (4 (q_0 - y_0) + 2) s - 2 y_1."""
    q0, s_lo, s_hi = x[0] - x[1] ** 2, x[1] + lo, x[1] + hi
    best = []
    for y0, y1 in y:
        roots = np.roots([4.0, 0.0, 4.0 * (q0 - y0) + 2.0, -2.0 * y1]).real
        s = np.concatenate([np.clip(roots, s_lo, s_hi), [s_lo, s_hi]])
        best.append(np.min(np.hypot(q0 + s * s - y0, s - y1)))
    return np.array(best)


def _swapped(exact):
    """Exact distance to the mirror images of ``exact``'s orbits under
    (u, v) -> (v, u)."""
    return lambda x, y, lo, hi: exact(x[::-1], y[:, ::-1], lo, hi)


PARABOLIC_TRANSLATION = fl.pushforward_flow(BUILTIN_MAPS["parabolic_shear"],
                                            fl.translation_flow([0.0, 1.0]))
# (x_0 + t, x_1 + 2 x_0 t + t^2): the mirror image of the orbit above
VERTICAL_PARABOLIC_TRANSLATION = fl.pushforward_flow(
    BUILTIN_MAPS["vertical_parabolic_shear"], fl.translation_flow([1.0, 0.0]))


EXACT_ORBITS = {
    "translation": (fl.BUILTIN_FLOWS["translation"],
                    _segment_orbit(lambda x: np.array([1.0, 0.0]))),
    "translation_3d": (fl.translation_flow([0.3, -0.5, 0.8]),
                       _segment_orbit(lambda x: np.array([0.3, -0.5, 0.8]))),
    "linear_shear": (fl.BUILTIN_FLOWS["linear_shear"],
                     _segment_orbit(_shear_step)),
    "rotation": (fl.BUILTIN_FLOWS["rotation"], _circle_orbit(1.0)),
    "rotation(-2)": (fl.rotation_flow(-2.0), _circle_orbit(-2.0)),
    # a curved pushed orbit, c'' = (2, 0), whose declared C = 2 is exact
    "parabolic_shear*translation(0,1)": (PARABOLIC_TRANSLATION,
                                         _parabola_orbit),
    "vertical_parabolic_shear*translation(1,0)": (
        VERTICAL_PARABOLIC_TRANSLATION, _swapped(_parabola_orbit)),
}
ORBIT_EPS = 0.5


def _exact_side_errors(flow, exact, sign, reverse, seed):
    """Per-row arc_membership of query points near the orbits, against the
    exact side of thresholds placed 1e-8 to 1e-7 from the exact distance.

    Returns (converged rows decided on the wrong side, converged rows,
    rows); a row that is not converged only clears its flag."""
    rng = np.random.default_rng(seed)
    if reverse:
        flow = flow.reversed()
    # the unreversed flow's times swept by the arc
    forward = (sign == "+") != reverse
    lo, hi = (0.0, ORBIT_EPS) if forward else (-ORBIT_EPS, 0.0)
    x = np.repeat(rng.uniform(-1.0, 1.0, (8, flow.dim)), 5, axis=0)
    t = rng.uniform(0.0, ORBIT_EPS, len(x)) * (1 if sign == "+" else -1)
    w = rng.normal(size=x.shape)
    w /= np.linalg.norm(w, axis=-1, keepdims=True)
    y = flow(t, x) + rng.uniform(0.0, 0.1, (len(x), 1)) * w
    d = np.concatenate([exact(xi, yi[None], lo, hi) for xi, yi in zip(x, y)])
    offset = rng.choice([-1.0, 1.0], len(d)) * rng.uniform(1e-8, 1e-7, len(d))
    thresh = d + offset
    wrong = converged = 0
    for i in range(len(x)):
        _, member, ok = arc_membership(
            fl._orbit_arcs(flow, x[i:i + 1], ORBIT_EPS), y[i:i + 1],
            thresh[i:i + 1], ORBIT_EPS, sign)
        if ok:
            converged += 1
            wrong += bool(member[0] != (d[i] < thresh[i]))
    return wrong, converged, len(x)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", sorted(EXACT_ORBITS))
def test_orbit_membership_matches_the_exact_orbit(name, sign, reverse):
    flow, exact = EXACT_ORBITS[name]
    wrong, converged, rows = _exact_side_errors(flow, exact, sign, reverse, 6)
    assert wrong == 0
    assert converged == rows


def test_exact_orbit_check_detects_a_false_curvature_bound():
    # negative control: a rotation that declares its arcs straight is
    # decided at the chord, which sags up to |x| (1 - cos(eps / 2)), 3e-2
    # at |x| = 1
    flow, exact = EXACT_ORBITS["rotation"]
    straight = dataclasses.replace(
        flow, curvature=lambda x, eps: np.zeros(len(x)))
    wrong, _, _ = _exact_side_errors(straight, exact, "+", False, 6)
    assert wrong > 0


def test_exact_orbit_check_detects_a_false_hessian_bound():
    # negative control: a parabolic shear that declares itself affine makes
    # its pushed translation orbits straight, C = 0, though they bend with
    # |c''| = 2
    flat = dataclasses.replace(BUILTIN_MAPS["parabolic_shear"],
                               hessian_bound=lambda p, r: np.zeros(len(p)))
    pushed = fl.pushforward_flow(flat, fl.translation_flow([0.0, 1.0]))
    assert np.all(pushed.curvature(np.zeros((3, 2)), ORBIT_EPS) == 0.0)
    wrong, _, _ = _exact_side_errors(pushed, _parabola_orbit, "+", False, 6)
    assert wrong > 0


# --- declared curvature bounds -----------------------------------------------

CURVATURE_FLOWS = {
    "translation_3d": fl.translation_flow([0.3, -0.5, 0.8]),
    "rotation(2)": fl.rotation_flow(2.0),
    "scaling(-1.5)": fl.scaling_flow(-1.5),
    "linear_spiral": fl.linear_flow([[0.3, -1.0], [1.0, -0.2]]),
    "linear_shear": fl.BUILTIN_FLOWS["linear_shear"],
}
# every map that declares its derivative bounds: every map with an inverse
BOUNDED_MAPS = sorted(m for m, spec in BUILTIN_MAPS.items()
                      if spec.hessian_bound is not None)
FLOWS_BY_DIM = {
    2: {"translation(1,0)": fl.translation_flow([1.0, 0.0]),
        "translation(0.3,-0.8)": fl.translation_flow([0.3, -0.8]),
        "rotation(2)": fl.rotation_flow(2.0),
        "scaling(-1.5)": fl.scaling_flow(-1.5)},
    3: {"translation(0.3,-0.5,0.8)": fl.translation_flow([0.3, -0.5, 0.8]),
        "linear_twist": fl.linear_flow([[0.0, -1.0, 0.0], [1.0, 0.0, 0.5],
                                        [0.0, -0.5, 0.2]])},
}
PUSHED_FLOWS = {
    f"{m}*{name}": fl.pushforward_flow(BUILTIN_MAPS[m], flow)
    for m in BOUNDED_MAPS
    for name, flow in FLOWS_BY_DIM[BUILTIN_MAPS[m].dim].items()}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("name", sorted(CURVATURE_FLOWS) + sorted(PUSHED_FLOWS))
def test_declared_curvature_dominates_the_sampled_one(name, sign, reverse):
    # eps = ORBIT_EPS: at eps = 1e-3 the rounding of the 2001-point second
    # differences alone reads about 4e-4 on straight orbits
    flow = {**CURVATURE_FLOWS, **PUSHED_FLOWS}[name]
    if reverse:
        flow = flow.reversed()
    x = np.random.default_rng(7).uniform(-1.0, 1.0, (20, flow.dim))
    eps = ORBIT_EPS
    ts = _params(eps, sign, 2001)
    h = ts[1] - ts[0]
    c = flow(ts[:, None], x)                                # (K, N, d)
    sampled = np.linalg.norm(c[2:] - 2 * c[1:-1] + c[:-2], axis=-1).max(axis=0)
    sampled /= h * h
    declared = flow.curvature(x, eps)
    assert declared.shape == (len(x),)
    assert np.all(sampled <= declared * (1 + 1e-6) + 1e-6)
    if name == "rotation(2)":       # the rotation bound is exact
        assert np.allclose(sampled, declared, rtol=1e-5)


@pytest.mark.parametrize("name", sorted(CURVATURE_FLOWS) + sorted(PUSHED_FLOWS)
                         + sorted(fl.BUILTIN_FLOWS))
def test_declared_speed_dominates_the_sampled_one(name):
    flow = {**CURVATURE_FLOWS, **PUSHED_FLOWS, **fl.BUILTIN_FLOWS}[name]
    ts = np.linspace(-ORBIT_EPS, ORBIT_EPS, 2001)
    x = np.random.default_rng(8).uniform(-1.0, 1.0, (20, flow.dim))
    for f in (flow, flow.reversed()):
        c = f(ts[:, None], x)
        sampled = np.linalg.norm(np.diff(c, axis=0), axis=-1).max(axis=0)
        sampled /= ts[1] - ts[0]
        declared = f.speed(x, ORBIT_EPS)
        assert declared.shape == (len(x),)
        assert np.all(sampled <= declared * (1 + 1e-6) + 1e-9)


def test_reversed_flows_keep_their_bounds():
    for flow in [*fl.BUILTIN_FLOWS.values(), *PUSHED_FLOWS.values()]:
        assert flow.reversed().curvature is flow.curvature
        assert flow.reversed().speed is flow.speed


def _map_bound_excesses(f, seed=12, step=1e-3):
    """Largest excess of the sampled |Df|_2 over the declared J, and of the
    sampled |D^2 f[v, v]| over the declared H, over points q of 50 balls
    B(p, r) and unit directions v.  The balls reach |q_i| = 4, so a bound
    that holds only near the origin fails.

    The second difference (f(q + h v) - 2 f(q) + f(q - h v)) / h^2 is an
    average of D^2 f[v, v] over [q - h v, q + h v], so each q is drawn from
    B(p, r - h), which keeps that segment inside the ball."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-3.0, 3.0, (50, f.dim))
    r = rng.uniform(step, 1.0, len(p))
    w = rng.normal(size=(len(p), 40, f.dim))
    w *= ((r[:, None] - step) * rng.uniform(0.0, 1.0, w.shape[:2])
          / np.linalg.norm(w, axis=-1))[..., None]
    q = p[:, None] + w                                     # (50, 40, d)
    norms = np.array([[np.linalg.norm(f.jacobian(qi), 2) for qi in ball]
                      for ball in q]).max(axis=1)
    v = rng.normal(size=q.shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    v[:, :f.dim] = np.eye(f.dim)        # and each axis at points of each ball
    second = np.linalg.norm(f(q + step * v) - 2 * f(q) + f(q - step * v),
                            axis=-1).max(axis=1) / (step * step)
    return (float(np.max(norms - f.jacobian_bound(p, r) * (1 + 1e-12))),
            float(np.max(second - f.hessian_bound(p, r) - 1e-6)))


@pytest.mark.parametrize("name", BOUNDED_MAPS)
def test_declared_map_bounds_dominate_the_sampled_ones(name):
    # |Df|_2 at points of each ball B(p, r), and second differences of f
    # inside each ball along unit directions, against the declared J and H
    jacobian_excess, hessian_excess = _map_bound_excesses(BUILTIN_MAPS[name])
    assert jacobian_excess <= 0.0
    assert hessian_excess <= 0.0


def test_every_invertible_map_declares_its_bounds():
    assert len(BOUNDED_MAPS) == 10
    assert BOUNDED_MAPS == sorted(m for m, spec in BUILTIN_MAPS.items()
                                  if spec.inverse is not None)
    assert all(BUILTIN_MAPS[m].jacobian_bound is not None for m in BOUNDED_MAPS)


def test_map_bound_check_detects_a_bound_taken_at_the_centre():
    # negative control: cubic_shear's H = 6 |p_1|, read at the centre of
    # each ball, misses the larger |q_1| elsewhere in it
    f = BUILTIN_MAPS["cubic_shear"]
    central = dataclasses.replace(
        f, hessian_bound=lambda p, r: 6.0 * np.abs(p[:, 1]))
    assert _map_bound_excesses(f)[1] <= 0.0
    assert _map_bound_excesses(central)[1] > 0.0


@pytest.fixture
def passes(monkeypatch):
    """(rows, parameters) of each polyline pass of arc_membership."""
    seen = []
    real = geometry._polyline_sq_min

    def counting(vertices, z, ts):
        seen.append((len(z), len(ts)))
        return real(vertices, z, ts)

    monkeypatch.setattr(geometry, "_polyline_sq_min", counting)
    return seen


def _near_orbits(flow, rng, n=400):
    x = rng.uniform(-1.0, 1.0, (n, 2))
    y = flow(rng.uniform(0.0, 0.1, len(x)), x) + rng.normal(scale=0.02,
                                                           size=x.shape)
    return x, y


@pytest.mark.parametrize("name", ["translation", "linear_shear"])
def test_straight_orbits_are_decided_in_one_pass(name, passes):
    flow = fl.BUILTIN_FLOWS[name]
    x, y = _near_orbits(flow, np.random.default_rng(8))
    for sign in "+-":
        passes.clear()
        member, converged = fl.flow_pair_contains(flow, 0.1, 0.3, x, y, sign)
        assert converged
        assert passes == [(len(x), 2)]
        assert 0 < member.sum() < len(x)


def test_certified_rows_start_at_the_chord(passes):
    # the last row is the centre of the unit circle, with a threshold 1e-7
    # below its distance |x| = 1 to the orbit arc: each polyline passes at
    # cos(h/2), and the chord bound h^2/8 clears the gap only below
    # h = 6e-4, so that row alone refines on to 1025 vertices
    flow = fl.BUILTIN_FLOWS["rotation"]
    x, y = _near_orbits(flow, np.random.default_rng(9), 200)
    x = np.vstack([x, [[1.0, 0.0]]])
    y = np.vstack([y, [[0.0, 0.0]]])
    thresh = np.append(0.3 * np.linalg.norm(y[:-1] - x[:-1], axis=-1),
                       1.0 - 1e-7)
    _, member, converged = arc_membership(fl._orbit_arcs(flow, x, 0.5), y,
                                          thresh, 0.5)
    assert converged and not member[-1]
    assert passes[0] == (len(x), 2)
    assert passes[-1] == (1, 1025)
    assert [k for _, k in passes] == [2, 3, 5, 9, 17, 33, 65, 129, 257,
                                      513, 1025]


def test_tolerance_scales_with_the_distance(passes):
    # the centre of a circle of radius 100, at its exact distance: with the
    # bound C = 200, twice sup|c''|, the chord bound 25 h^2 never clears the
    # gap 100 (1 - cos(h/2)) ~ 12.5 h^2, so the row is decided by the
    # tolerance 1e-9 (1 + d) alone, once 25 h^2 <= 1.01e-7: at h = 0.5/8192
    circle = _curve_arc(lambda t: 100.0 * np.stack([np.cos(t), np.sin(t)],
                                                   axis=-1), 200.0)
    dist, _, converged = arc_membership(circle, np.zeros((1, 2)),
                                        np.array([100.0]), 0.5)
    assert converged and 100.0 - 1e-5 < dist[0] < 100.0
    assert passes[-1] == (1, 8193)


def test_pushed_rows_start_at_the_chord(passes):
    # a map with bounds that vary over the plane certifies its pushed
    # orbits too, so their first pass is the chord
    pushed = fl.pushforward_flow(BUILTIN_MAPS["exp_stretch"],
                                 fl.BUILTIN_FLOWS["rotation"])
    x, y = _near_orbits(pushed, np.random.default_rng(10))
    _, converged = fl.flow_pair_contains(pushed, 0.1, 0.3, x, y)
    assert converged
    assert passes[0] == (len(x), 2)


SAMPLED_ORBIT_FLOWS = {
    **fl.BUILTIN_FLOWS,
    "shear_half*rotation": fl.pushforward_flow(BUILTIN_MAPS["shear_half"],
                                               fl.BUILTIN_FLOWS["rotation"]),
    "parabolic_shear*translation(0,1)": PARABOLIC_TRANSLATION,
}


@pytest.mark.parametrize("name", sorted(SAMPLED_ORBIT_FLOWS))
def test_sampled_orbit_rows_match_the_cap_oracle(name):
    # rows built as flows._sample_orbit_members builds them, for every
    # (eps, mu) of check (e), with the transverse slack also past the
    # aperture so that both sides occur.  Rows whose oracle distance lies
    # within 1e-9 (1 + d) plus the cap's chord bound of the threshold are
    # left out: the tolerance rule may decide those either way, and at
    # eps = 1e-4 it can fire at the chord.  One base point per eps shares
    # one cap-resolution oracle polyline.
    flow = SAMPLED_ORBIT_FLOWS[name]
    rng = np.random.default_rng(11)
    eps_list, mu_list = fl.C_GRID
    rows = 24
    for eps in eps_list:
        x0 = rng.uniform(-1.0, 1.0, (1, flow.dim))
        x = np.repeat(x0, rows * len(mu_list), axis=0)
        on_orbit = flow(rng.uniform(0.2 * eps, eps, len(x)), x)
        w = rng.normal(size=x.shape)
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        mu = np.repeat(mu_list, rows)
        slack = rng.choice([0.25, 1.5], len(x)) * mu
        reach = slack * np.linalg.norm(on_orbit - x, axis=-1)
        y = on_orbit + reach[:, None] * w
        oracle = point_polyline_distance(
            y, flow(_params(eps, "+")[:, None], x0)[:, 0])
        thresh = mu * np.linalg.norm(y - x, axis=-1)
        cap_bound = ((eps / geometry.ARC_CAP) ** 2
                     * flow.curvature(x0, eps)[0] / 8.0)
        clear = np.abs(oracle - thresh) > 1e-9 * (1.0 + oracle) + cap_bound
        assert clear.sum() > 0.9 * len(x)
        expected = oracle < thresh
        assert 0 < expected[clear].sum() < clear.sum()
        for i, m in enumerate(mu_list):
            cell = slice(i * rows, (i + 1) * rows)
            member, converged = fl.flow_pair_contains(flow, eps, m, x[cell],
                                                      y[cell])
            assert converged
            assert np.array_equal(member[clear[cell]],
                                  expected[cell][clear[cell]])
