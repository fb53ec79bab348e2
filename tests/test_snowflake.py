from fractions import Fraction

import numpy as np
import pytest

from filterbench.errors import ConstraintViolation, TrivialDevelopment
from filterbench.snowflake import (
    ARC_GRID,
    ARC_ROWS,
    BUILTIN_FUNCS,
    GOLDEN,
    MixedProductSpace,
    Polynomial,
    PolynomialGenerator,
    SnowflakeSpace,
    _tail_ratios,
    arc_distances,
    box_counting_dimension,
    check_metric_axioms,
    check_poly_derivable,
    graph_embed,
    polynomial_filter_contains,
    separate_polynomials,
    snowflake_distance,
    truncated_composition,
)
from filterbench.suites import DERIVABILITY_TRIPLES, SEPARATION_PAIRS

P = Polynomial.from_coeffs

POLYS = [P([0, 1]), P([0, 1, 1]), P([0, -2, 0, 3]), P([0, "1/3", "-1/2"]),
         P([0, 0, 1])]


# --- reference: scalar grid scan plus golden-section search, one point at a
# time; arc_distances must match it bit for bit ------------------------------

def _golden_min_ref(f, lo, hi, iters=60):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return min(fc, fd)


def _arc_min_ref(point_cost, eps):
    ts = np.linspace(0.0, eps, ARC_GRID)
    vals = point_cost(ts)
    i = int(np.argmin(vals))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, ARC_GRID - 1)]
    refined = _golden_min_ref(
        lambda s: float(point_cost(np.array([s]))[0]), lo, hi)
    return min(float(vals[i]), refined)


def _graph_ref(y, x, p, eps, m):
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    return _arc_min_ref(lambda ts: (np.abs(y[0] - x[0] - ts)
                                    + np.abs(y[1] - x[1] - p(ts)) ** (1.0 / m)),
                        eps)


def _line_ref(y, x, p, eps, m):
    return _arc_min_ref(lambda ts: np.abs(y - x - p(ts)) ** (1.0 / m), eps)


def _derivability_ratios_ref(f, x, p, m, t0=0.05, count=24):
    """check_poly_derivable's ratios, one scalar arc search per point."""
    q = truncated_composition(f, x, p, m)
    q_poly = P([Fraction(c).limit_denominator(10 ** 12)
                for c in np.where(np.abs(q) < 1e-15, 0.0, q)])
    space = MixedProductSpace(m)
    t_h = t0 / 2.0 ** np.arange(count, dtype=float)
    origin = np.zeros(2)
    vals = f(x + p(t_h)) - f(x)
    imgs = np.stack([t_h, vals], axis=-1)
    ratios = np.empty(count)
    for i, y in enumerate(imgs):
        d_xy = float(space.distance(y, origin))
        at_param = abs(vals[i] - q_poly(t_h[i])) ** (1.0 / m)
        d_arc = min(_graph_ref(y, origin, q_poly, 2.0 * t0, m),
                    float(at_param))
        ratios[i] = d_arc / d_xy
    return ratios


class TestDistances:
    def test_known_values(self):
        assert snowflake_distance(2, 0.0, 0.25) == pytest.approx(0.5)
        assert snowflake_distance(3, 0.0, 8.0) == pytest.approx(2.0)
        assert snowflake_distance(2, 0.7, 0.7) == 0.0

    def test_bad_exponent(self):
        with pytest.raises(ConstraintViolation):
            snowflake_distance(1, 0.0, 1.0)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_triangle_inequality_sampled(self, m):
        rng = np.random.default_rng(m)
        sp = SnowflakeSpace(m)
        worst = check_metric_axioms(
            sp.distance, lambda n: rng.uniform(-5, 5, n), 100_000)
        assert worst >= -1e-12

    def test_mixed_product_axioms(self):
        rng = np.random.default_rng(0)
        sp = MixedProductSpace(2)
        worst = check_metric_axioms(
            sp.distance, lambda n: rng.uniform(-3, 3, (n, 2)), 50_000)
        assert worst >= -1e-12


class TestPolynomial:
    def test_exact_coefficients(self):
        p = P(["0", "1/2", "1/3"])
        assert p.coeffs == (Fraction(0), Fraction(1, 2), Fraction(1, 3))
        assert p(2.0) == pytest.approx(1.0 + 4.0 / 3.0)

    def test_trailing_zeros_trimmed(self):
        assert P([0, 1, 0]).degree == 1

    def test_float_coefficients_cached(self):
        p = P(["1/3", 2])
        assert p.float_coeffs == (1 / 3, 2.0)
        assert p.float_coeffs is p.float_coeffs
        assert p(np.array([0.0, 1.0])).tolist() == [1 / 3, 1 / 3 + 2.0]
        # equality and hashing stay on the exact coefficients
        assert p == P(["1/3", 2]) and hash(p) == hash(P(["1/3", 2]))

    def test_equality_is_exact(self):
        assert P([0, 1]) == P([0, Fraction(2, 2)])
        assert P([0, 1]) != P([0, 1, Fraction(1, 10 ** 9)])

    def test_generator_validation(self):
        with pytest.raises(ConstraintViolation):
            PolynomialGenerator(np.zeros(2), P([1, 1]), 0.1, 0.5, 2)
        with pytest.raises(ConstraintViolation):
            PolynomialGenerator(np.zeros(2), P([0, 0, 0, 1]), 0.1, 0.5, 2)


class TestMembership:
    def test_on_arc_point(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.3, 2)
        y = np.array([0.2, 0.2])
        assert polynomial_filter_contains(g, y, MixedProductSpace(2))

    def test_backward_point_excluded(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.5, 2)
        y = np.array([-0.1, 0.0])
        assert not polynomial_filter_contains(g, y, MixedProductSpace(2))

    def test_base_point_excluded(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.5, 2)
        assert not polynomial_filter_contains(g, np.zeros(2), MixedProductSpace(2))

    def test_line_mode(self):
        g = PolynomialGenerator(np.zeros(1), P([0, 1]), 0.5, 0.5, 2)
        sp = SnowflakeSpace(2)
        assert polynomial_filter_contains(g, 0.2, sp)
        assert not polynomial_filter_contains(g, -0.4, sp)

    @pytest.mark.parametrize("rows", [1, ARC_ROWS + 1])
    def test_batch_equals_single_points(self, rows):
        rng = np.random.default_rng(3)
        sp = MixedProductSpace(2)
        g = PolynomialGenerator(np.array([0.1, -0.1]), P([0, 1, 1]), 0.4,
                                0.5, 2)
        ys = np.vstack([g.x, rng.uniform(-0.5, 0.8, (rows - 1, 2))])
        got = polynomial_filter_contains(g, ys, sp)
        assert got.dtype == bool and got.shape == (rows,)
        assert got.tolist() == [polynomial_filter_contains(g, y, sp)
                                for y in ys]
        assert not got[0]  # the base point
        line = PolynomialGenerator(np.zeros(1), P([0, 1]), 0.5, 0.5, 2)
        sp = SnowflakeSpace(2)
        ys = np.append(0.0, rng.uniform(-0.5, 0.8, rows - 1))
        got = polynomial_filter_contains(line, ys, sp)
        assert got.shape == (rows,)
        assert got.tolist() == [polynomial_filter_contains(line, y, sp)
                                for y in ys]

    def test_single_point_gives_plain_bool(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.3, 2)
        assert type(polynomial_filter_contains(
            g, np.array([0.2, 0.2]), MixedProductSpace(2))) is bool
        line = PolynomialGenerator(np.zeros(1), P([0, 1]), 0.5, 0.5, 2)
        assert type(polynomial_filter_contains(
            line, 0.2, SnowflakeSpace(2))) is bool

    def test_monotone_in_parameters(self):
        rng = np.random.default_rng(1)
        small = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.2, 0.2, 2)
        large = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.4, 0.4, 2)
        sp = MixedProductSpace(2)
        for y in rng.uniform(-0.5, 0.5, (200, 2)):
            if polynomial_filter_contains(small, y, sp):
                assert polynomial_filter_contains(large, y, sp)


class TestArcKernel:
    @pytest.mark.parametrize("c1,c2,m", SEPARATION_PAIRS)
    def test_separation_tails_match_scalar_reference(self, c1, c2, m):
        x = np.zeros(2)
        seq, ratios, eps = _tail_ratios(P(c1), P(c2), m, x, 0.1, 64)
        ref = np.array([_graph_ref(y, x, P(c2), eps, m)
                        / float(MixedProductSpace(m).distance(y, x))
                        for y in seq])
        assert ratios.tobytes() == ref.tobytes()
        assert separate_polynomials(P(c1), P(c2), m)["min_ratio"] == ref.min()

    @pytest.mark.parametrize("fname,coeffs,m,x", DERIVABILITY_TRIPLES)
    def test_derivability_images_match_scalar_reference(self, fname, coeffs,
                                                        m, x):
        f = BUILTIN_FUNCS[fname]
        out = check_poly_derivable(f, x, P(coeffs), m)
        ref = _derivability_ratios_ref(f, x, P(coeffs), m)
        assert out["ratios"].tobytes() == ref.tobytes()

    def test_random_points_match_scalar_reference(self):
        rng = np.random.default_rng(7)
        for k in range(100):
            p, m = POLYS[k % len(POLYS)], 2 + k % 3
            eps = rng.uniform(0.01, 1.0)
            y, x = rng.uniform(-1, 1, 2), rng.uniform(-0.5, 0.5, 2)
            assert arc_distances((y - x)[None], p, eps, m)[0] == _graph_ref(
                y, x, p, eps, m)
            y0, x0 = float(y[0]), float(x[0])
            assert arc_distances([y0 - x0], p, eps, m)[0] == _line_ref(
                y0, x0, p, eps, m)
        # a batch of line rows, across a block boundary
        p, m, eps = POLYS[2], 3, 0.4
        ys = rng.uniform(-1, 1, ARC_ROWS + 7)
        got = arc_distances(ys - 0.25, p, eps, m)
        assert got.tolist() == [_line_ref(y, 0.25, p, eps, m) for y in ys]

    def test_against_dense_grid(self):
        # independent oracle: never above the ARC_GRID scan, never more
        # than 1e-6 above a 2^18-point scan, and never below a lower bound
        # on the true minimum certified from that scan (per cell, |p'| <= L
        # bounds how far the arc moves)
        rng = np.random.default_rng(11)
        dense = 2 ** 18
        for k in range(30):
            p, m = POLYS[k % len(POLYS)], 2 + k % 3
            eps = rng.uniform(0.05, 1.0)
            lip = sum(abs(float(c)) * i * eps ** (i - 1)
                      for i, c in enumerate(p.coeffs) if i)
            graph_point = rng.uniform(-0.5, 0.5, 2)
            for dx, dy in [graph_point, (None, rng.uniform(-0.5, 0.5))]:
                off = dy if dx is None else np.array([dx, dy])
                got = arc_distances(np.array([off]), p, eps, m)[0]
                for n in (ARC_GRID, dense):
                    ts = np.linspace(0.0, eps, n)
                    snow = np.abs(dy - p(ts))
                    cost = snow ** (1.0 / m)
                    if dx is not None:
                        cost = cost + np.abs(dx - ts)
                    if n == ARC_GRID:
                        assert got <= cost.min()
                        continue
                    assert got <= cost.min() + 1e-6
                    h = eps / (n - 1)
                    lower = np.maximum(snow - lip * h, 0.0) ** (1.0 / m)
                    if dx is not None:
                        lower = lower + np.maximum(np.abs(dx - ts) - h, 0.0)
                    assert got >= lower.min()

    @pytest.mark.parametrize("rows", [1, 2, ARC_ROWS, ARC_ROWS + 1,
                                      ARC_ROWS + 2])
    def test_batch_equals_single_rows(self, rows):
        rng = np.random.default_rng(rows)
        offs = rng.uniform(-0.5, 0.5, (rows, 2))
        got = arc_distances(offs, POLYS[1], 0.3, 2)
        assert got.shape == (rows,)
        assert got.tolist() == [float(arc_distances(o[None], POLYS[1], 0.3, 2)[0])
                                for o in offs]
        # line rows: a block of exactly 2 must not read as one graph point
        got = arc_distances(offs[:, 1], POLYS[1], 0.3, 3)
        assert got.shape == (rows,)
        assert got.tolist() == [_line_ref(float(o), 0.0, POLYS[1], 0.3, 3)
                                for o in offs[:, 1]]

    def test_bad_offset_shape(self):
        with pytest.raises(ValueError):
            arc_distances(np.zeros((4, 3)), POLYS[0], 0.3, 2)

    def test_empty_batch(self):
        assert arc_distances(np.zeros((0, 2)), POLYS[0], 0.3, 2).shape == (0,)


class TestSeparation:
    def test_equal_pairs_exact(self):
        assert separate_polynomials(P([0, 1]), P([0, 1]), 2) == "equal"
        assert separate_polynomials(
            P([0, Fraction(1, 3)]), P([0, Fraction(2, 6)]), 3) == "equal"

    @pytest.mark.parametrize("c1,c2,m", [
        ([0, 1], [0, 2], 2),
        ([0, 1], [0, 1, 1], 2),
        ([0, 0, 1], [0, 0, 2], 2),
        ([0, 1], [0, -1], 2),
        ([0, 1, 1], [0, 1, 2], 2),
        ([0, 1], [0, 1, 0, 1], 3),
        ([0, 0, 0, 1], [0, 0, 0, 2], 3),
    ])
    def test_distinct_pairs_witnessed(self, c1, c2, m):
        out = separate_polynomials(P(c1), P(c2), m)
        assert out != "equal"
        assert out["status"] == "separated"
        assert out["verified"]
        assert out["min_ratio"] > 0

    def test_degree_gate(self):
        with pytest.raises(ConstraintViolation):
            separate_polynomials(P([0, 0, 0, 1]), P([0, 1]), 2)


class TestGraphEmbed:
    def test_zero_function_is_isometry(self):
        g = graph_embed(lambda x: 0.0 * x)
        assert g.lower == pytest.approx(1.0)
        assert g.upper == pytest.approx(1.0)

    def test_identity_constants_finite(self):
        # the snowflaked second coordinate makes the sampled upper constant
        # resolution-dependent, but it stays finite and above the lower one
        g = graph_embed(lambda x: x)
        assert 1.0 <= g.lower <= g.upper
        assert np.isfinite(g.upper)

    def test_sine_reported(self):
        g = graph_embed(np.sin, interval=(-1.0, 1.0))
        assert np.isfinite(g.upper)
        assert g(np.array([0.3])).shape == (1, 2)


class TestDerivability:
    def test_identity_oracle(self):
        q = truncated_composition(BUILTIN_FUNCS["identity"], 0.0, P([0, 1, 1]), 2)
        assert np.allclose(q, [0.0, 1.0, 1.0])

    def test_double_oracle(self):
        q = truncated_composition(BUILTIN_FUNCS["double"], 0.0, P([0, 1]), 2)
        assert np.allclose(q, [0.0, 2.0, 0.0])

    def test_affine_square_oracle(self):
        q = truncated_composition(BUILTIN_FUNCS["affine_square"], 0.0, P([0, 1]), 2)
        assert np.allclose(q, [0.0, 1.0, 1.0])

    def test_truncation_drops_high_orders(self):
        # f = y + y^3 at 0 with p = t + t^2: cubic terms fall outside m=2
        q = truncated_composition(BUILTIN_FUNCS["cubic"], 0.0, P([0, 1, 1]), 2)
        assert np.allclose(q, [0.0, 1.0, 1.0])

    @pytest.mark.parametrize("fname,coeffs,m,x", [
        ("identity", [0, 1], 2, 0.0),
        ("double", [0, 1], 2, 0.0),
        ("affine_square", [0, 1], 2, 0.0),
        ("affine_square", [0, 0, 1], 2, 0.0),
        ("cubic", [0, 1], 3, 0.5),
        ("sine", [0, 1], 2, 0.3),
        ("expm1", [0, 1, 1], 2, 0.0),
    ])
    def test_transport_matches_oracle(self, fname, coeffs, m, x):
        out = check_poly_derivable(BUILTIN_FUNCS[fname], x, P(coeffs), m)
        assert out["matches"], out["ratios"]

    def test_trivial_development_rejected(self):
        flat = BUILTIN_FUNCS["identity"]
        from filterbench.snowflake import Func1D
        const = Func1D("const", lambda y: np.zeros_like(np.asarray(y, float)),
                       tuple(flat.derivs[1:2] * 3))
        with pytest.raises(TrivialDevelopment):
            check_poly_derivable(const, 0.0, P([0, 1]), 2)


class TestDimension:
    @pytest.mark.parametrize("m", [2, 3])
    def test_box_counting_near_m(self, m):
        out = box_counting_dimension(m)
        assert abs(out["dimension"] - m) <= 0.2

    @staticmethod
    def _counts_ref(m, radii, grid):
        sp = SnowflakeSpace(m)
        pts = np.linspace(0.0, 1.0, grid)
        ref = []
        for r in radii:
            n = i = 0
            while i < grid:
                n += 1
                j = np.searchsorted(sp.distance(pts[i:], pts[i]), r,
                                    side="left")
                i += max(int(j), 1)
            ref.append(n)
        return ref

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_counts_match_full_array_search(self, m):
        out = box_counting_dimension(m)
        assert out["counts"].tolist() == self._counts_ref(m, out["radii"],
                                                          out["grid"])

    @pytest.mark.parametrize("m,grid,k", [(4, 283, 6), (3, 2293, 299),
                                          (4, 2029, 2)])
    def test_counts_when_the_first_window_is_covered(self, m, grid, k):
        # r^m (grid - 1) = k: some balls cover their whole first window, so
        # the search runs again on a doubled window
        radii = np.array([(k / (grid - 1)) ** (1.0 / m), 0.3])
        out = box_counting_dimension(m, radii, grid)
        assert out["counts"].tolist() == self._counts_ref(m, radii, grid)
