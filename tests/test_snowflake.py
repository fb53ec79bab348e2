from fractions import Fraction

import numpy as np
import pytest

from filterbench import snowflake
from filterbench.errors import ConstraintViolation, TrivialDevelopment
from filterbench.snowflake import (
    ARC_GRID,
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
    polynomial_filter_contains,
    separate_polynomials,
    truncated_composition,
)
from filterbench.suites import DERIVABILITY_TRIPLES, SEPARATION_PAIRS

P = Polynomial.from_coeffs

# the largest batch a suite submits: the 64-row separation tail
TAIL_ROWS = 64

POLYS = [P([0, 1]), P([0, 1, 1]), P([0, -2, 0, 3]), P([0, "1/3", "-1/2"]),
         P([0, 0, 1])]


def arc_rows(offsets, p, eps, m):
    """arc_distances on the one job (offsets, p, eps, m)."""
    return arc_distances([(offsets, p, eps, m)])[0]


def contains(g, ys):
    """polynomial_filter_contains on the one job (g, ys)."""
    return polynomial_filter_contains([(g, ys)])[0]


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
        assert SnowflakeSpace(2).distance(0.0, 0.25) == pytest.approx(0.5)
        assert SnowflakeSpace(3).distance(0.0, 8.0) == pytest.approx(2.0)
        assert SnowflakeSpace(2).distance(0.7, 0.7) == 0.0

    def test_bad_exponent(self):
        with pytest.raises(ConstraintViolation):
            SnowflakeSpace(1)
        with pytest.raises(ConstraintViolation):
            MixedProductSpace(1)
        with pytest.raises(ConstraintViolation):
            PolynomialGenerator(np.zeros(2), P([0, 1]), 0.1, 0.5, 1)
        with pytest.raises(ConstraintViolation):
            separate_polynomials(P([0, 1]), P([0, 1]), 1)

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
        assert contains(g, [[0.2, 0.2]]).tolist() == [True]

    def test_backward_point_excluded(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.5, 2)
        assert contains(g, [[-0.1, 0.0]]).tolist() == [False]

    def test_base_point_excluded(self):
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.5, 2)
        assert contains(g, np.zeros((1, 2))).tolist() == [False]

    @pytest.mark.parametrize("rows", [1, TAIL_ROWS + 1])
    def test_batch_equals_single_points(self, rows):
        rng = np.random.default_rng(3)
        g = PolynomialGenerator(np.array([0.1, -0.1]), P([0, 1, 1]), 0.4,
                                0.5, 2)
        ys = np.vstack([g.x, rng.uniform(-0.5, 0.8, (rows - 1, 2))])
        got = contains(g, ys)
        assert got.dtype == bool and got.shape == (rows,)
        assert got.tolist() == [contains(g, y[None])[0]
                                for y in ys]
        assert not got[0]  # the base point

    def test_metric_follows_the_generator_exponent(self):
        # the membership rule under MixedProductSpace(g.m), and only that
        # exponent: the m = 2 metric decides some of these rows otherwise
        rng = np.random.default_rng(5)
        x = np.array([0.1, -0.1])
        g = PolynomialGenerator(x, P([0, 1, 0, 1]), 0.4, 0.5, 3)
        ys = np.vstack([x, rng.uniform(-0.3, 0.6, (40, 2))])

        def rule(m):
            d = np.array([float(MixedProductSpace(m).distance(y, x))
                          for y in ys])
            return (d != 0) & (arc_rows(ys - x, g.p, g.eps, m)
                               < g.lam * d)

        got = contains(g, ys)
        assert got.tolist() == rule(3).tolist()
        assert got.tolist() != rule(2).tolist()

    def test_monotone_in_parameters(self):
        rng = np.random.default_rng(1)
        small = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.2, 0.2, 2)
        large = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.4, 0.4, 2)
        ys = rng.uniform(-0.5, 0.5, (200, 2))
        in_small = contains(small, ys)
        assert in_small.any()
        assert not (in_small & ~contains(large, ys)).any()


class TestArcKernel:
    @pytest.mark.parametrize("c1,c2,m", SEPARATION_PAIRS)
    def test_separation_tails_match_scalar_reference(self, c1, c2, m):
        x = np.zeros(2)
        [(seq, ratios)] = _tail_ratios([(P(c1), P(c2), m)], x, 0.1, 64)
        # the generator horizon is twice t0
        ref = np.array([_graph_ref(y, x, P(c2), 0.2, m)
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
            assert arc_rows((y - x)[None], p, eps, m)[0] == _graph_ref(
                y, x, p, eps, m)

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
            dx, dy = rng.uniform(-0.5, 0.5, 2)
            got = arc_rows(np.array([[dx, dy]]), p, eps, m)[0]
            for n in (ARC_GRID, dense):
                ts = np.linspace(0.0, eps, n)
                snow = np.abs(dy - p(ts))
                cost = snow ** (1.0 / m) + np.abs(dx - ts)
                if n == ARC_GRID:
                    assert got <= cost.min()
                    continue
                assert got <= cost.min() + 1e-6
                h = eps / (n - 1)
                lower = (np.maximum(snow - lip * h, 0.0) ** (1.0 / m)
                         + np.maximum(np.abs(dx - ts) - h, 0.0))
                assert got >= lower.min()

    @pytest.mark.parametrize("rows", [1, 2, TAIL_ROWS, TAIL_ROWS + 1,
                                      TAIL_ROWS + 2])
    def test_batch_equals_single_rows(self, rows):
        rng = np.random.default_rng(rows)
        offs = rng.uniform(-0.5, 0.5, (rows, 2))
        got = arc_rows(offs, POLYS[1], 0.3, 2)
        assert got.shape == (rows,)
        assert got.tolist() == [float(arc_rows(o[None], POLYS[1], 0.3, 2)[0])
                                for o in offs]
        # one call for jobs of two horizons and both exponents, with a
        # polynomial of every degree 1..m: each job as computed alone, so no
        # row reads another job's polynomial
        jobs = [(rng.uniform(-0.5, 0.5, (rows, 2)),
                 P([0, *rng.integers(1, 4, deg) * rng.choice([-1, 1], deg)]),
                 eps, m)
                for eps in (0.3, 0.2) for m in (2, 3)
                for deg in range(1, m + 1)]
        got = arc_distances(jobs)
        assert len(got) == len(jobs) == 10
        for (offs, p, eps, m), d in zip(jobs, got):
            assert d.tolist() == arc_rows(offs, p, eps, m).tolist()

    def test_bad_offset_shape(self):
        with pytest.raises(ValueError):
            arc_rows(np.zeros((4, 3)), POLYS[0], 0.3, 2)

    def test_one_dimensional_offsets_rejected(self):
        # (N,) offsets have no reading: neither as N line points nor, for
        # N = 2, as one point of the plane
        for n in (1, 2, 5):
            with pytest.raises(ValueError):
                arc_rows(np.zeros(n), POLYS[0], 0.3, 2)
        g = PolynomialGenerator(np.zeros(2), P([0, 1]), 0.5, 0.3, 2)
        with pytest.raises(ValueError):
            contains(g, np.array([0.2, 0.2]))

    def test_empty_batch(self):
        assert arc_rows(np.zeros((0, 2)), POLYS[0], 0.3, 2).shape == (0,)
        assert arc_distances([]) == []


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
    def test_counts_when_the_first_window_is_covered(self, m, grid, k,
                                                      monkeypatch):
        # r^m (grid - 1) = k: some balls cover their whole first window, so
        # the search runs again on a doubled window
        radii = ((k / (grid - 1)) ** (1.0 / m), 0.3)
        monkeypatch.setattr(snowflake, "BOX_RADII", radii)
        monkeypatch.setattr(snowflake, "BOX_GRID", grid)
        out = box_counting_dimension(m)
        assert out["counts"].tolist() == self._counts_ref(m, radii, grid)
