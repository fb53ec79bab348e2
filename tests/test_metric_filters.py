import numpy as np
import pytest

from filterbench.errors import (
    DegenerateTerm,
    InvalidWitness,
    NonUnitDirection,
    SingularJacobian,
)
from filterbench.geometry import angle_between, point_segment_distance, unit
from filterbench.maps import BUILTIN_MAPS, linear_map
from filterbench.metric_filters import (
    ConeGenerator,
    PairDirectionalFilter,
    arc_distance,
    check_bound_batch,
    check_commutation_directional,
    classify_sequence,
    classify_sequences,
    curve_filter,
    envelope_radius,
    euclidean,
    metric_uniformity_contains,
    sample_cone_members,
    transport_via_sequences,
    uniformity_refinement_certificate,
    v_plus_contains,
    CurveSpec,
)
from filterbench.suites import SEQUENCE_BATCH_ELEMENTS, SEQUENCE_TERMS
from oracles import classify_sequence as classify_sequence_oracle
from oracles import sample_cone_members as broadcast_cone_members

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
ORIGIN = np.zeros(2)
LINE = CurveSpec("line", lambda t: t[:, None] * E1, -1.0, 1.0)  # through ORIGIN along E1


def harmonic_sequence(x, u, n=10_000, perp=None):
    h = np.arange(1, n + 1, dtype=float)
    pts = np.asarray(x, float) + (1.0 / h)[:, None] * np.asarray(u, float)
    if perp is not None:
        pts = pts + (1.0 / h ** 2)[:, None] * np.asarray(perp, float)
    return pts


class TestMetricSpace:
    def test_axioms_on_samples(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.normal(size=(3, 500, 3))
        dab = euclidean(a, b)
        assert np.allclose(dab, euclidean(b, a))
        assert np.all(dab >= 0)
        assert np.all(euclidean(a, c) <= dab + euclidean(b, c) + 1e-9)
        assert np.allclose(euclidean(a, a), 0.0)


class TestConeMembership:
    def test_interior_point(self):
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        # segment distance 0.1 < 0.5 * sqrt(0.26)
        assert v_plus_contains(g, np.array([0.5, 0.1]))

    def test_base_point_excluded(self):
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        assert not v_plus_contains(g, ORIGIN)

    def test_backward_point_excluded(self):
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        assert not v_plus_contains(g, np.array([-0.5, 0.0]))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(NonUnitDirection):
            ConeGenerator(ORIGIN, 2.0 * E1, 1.0, 0.5)

    @pytest.mark.parametrize("u", [[0.0, 0.0], [np.nan, 0.0]],
                             ids=["zero", "nan"])
    @pytest.mark.parametrize("build", [
        lambda u: ConeGenerator(ORIGIN, u, 1.0, 0.5),
        PairDirectionalFilter,
        lambda u: classify_sequence(harmonic_sequence(ORIGIN, E1, n=100),
                                    ORIGIN, u),
    ], ids=["cone", "pair", "classify"])
    def test_zero_or_nan_direction_rejected(self, build, u):
        with pytest.raises(NonUnitDirection):
            build(np.array(u))

    def test_bad_aperture_rejected(self):
        with pytest.raises(InvalidWitness):
            ConeGenerator(ORIGIN, E1, 1.0, 1.5)
        with pytest.raises(InvalidWitness):
            ConeGenerator(ORIGIN, E1, -1.0, 0.5)

    def test_generator_monotonicity(self):
        rng = np.random.default_rng(1)
        y = rng.uniform(-2, 2, size=(10_000, 2))
        small = ConeGenerator(ORIGIN, E1, 0.5, 0.3)
        large = ConeGenerator(ORIGIN, E1, 1.0, 0.6)
        inner = v_plus_contains(small, y)
        outer = v_plus_contains(large, y)
        assert not np.any(inner & ~outer)

    def test_envelope_radius(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(-4, 4, size=(10_000, 2))
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        member = v_plus_contains(g, y)
        r = np.linalg.norm(y - g.x, axis=-1)
        assert np.all(r[member] < envelope_radius(1.0, 0.5))

    def test_cone_shape_probe_agreement(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(-2, 2, size=(10_000, 2))
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.4)
        # where y projects strictly inside the segment from 0 to E1,
        # membership is sin(angle(y, E1)) < sigma
        interior = (y[:, 0] > 1e-9) & (y[:, 0] < 1 - 1e-9)
        by_angle = np.abs(y[:, 1]) < 0.4 * np.linalg.norm(y, axis=-1)
        assert np.array_equal(v_plus_contains(g, y)[interior], by_angle[interior])

    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_row_cones_match_the_segment_rule(self, dim):
        # one generator with a cone per row decides each row as the cone's
        # own generator does, and as the distance to the segment does
        rng = np.random.default_rng(dim)
        x = rng.uniform(-1, 1, (6, dim))
        u = unit(rng.normal(size=(6, dim)))
        y = x[:, None] + rng.uniform(-0.6, 0.6, (6, 500, dim))
        eps, sigma = 0.5, 0.4
        got = v_plus_contains(ConeGenerator(x[:, None], u[:, None], eps,
                                            sigma), y)
        assert got.shape == (6, 500) and got.any() and not got.all()
        for xi, ui, yi, row in zip(x, u, y, got):
            assert row.tolist() == v_plus_contains(
                ConeGenerator(xi, ui, eps, sigma), yi).tolist()
            d_xy = np.linalg.norm(yi - xi, axis=-1)
            d_seg = point_segment_distance(yi, xi, xi + eps * ui)
            assert row.tolist() == (d_seg < sigma * d_xy).tolist()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sampler_matches_the_broadcast_form(self, dim):
        # written one coordinate at a time, with the bits and the draws of
        # the form that broadcasts over the coordinate axis
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            g = ConeGenerator(rng.uniform(-1, 1, dim), unit(rng.normal(size=dim)),
                              0.5, 0.3)
            rngs = [np.random.default_rng(seed + 10) for _ in range(2)]
            got = sample_cone_members(g, 1000, rngs[0])
            want = broadcast_cone_members(g, 1000, rngs[1])
            assert got.shape == want.shape == (1000, dim)
            assert got.tobytes() == want.tobytes()
            assert v_plus_contains(g, got).all()
            assert rngs[0].random() == rngs[1].random()

    def test_per_row_cones_check_every_direction(self):
        u = np.array([[[1.0, 0.0]], [[0.0, 2.0]]])
        with pytest.raises(NonUnitDirection):
            ConeGenerator(np.zeros((2, 1, 2)), u, 1.0, 0.5)


class TestClassifySequence:
    def test_exact_ray_matches(self):
        seq = harmonic_sequence(ORIGIN, E1)
        v = classify_sequence(seq, ORIGIN, E1)
        assert v.converges_to_point
        assert v.matches_filter
        assert v.matches_filter and v.agreement
        assert float(angle_between(v.direction_limit, E1)) < 1e-6

    def test_alternating_direction_has_no_limit(self):
        h = np.arange(1, 10_001, dtype=float)
        seq = ((-1.0) ** h / h)[:, None] * E1
        v = classify_sequence(seq, ORIGIN, E1)
        assert v.converges_to_point
        assert v.direction_limit is None
        assert not v.matches_filter
        assert v.agreement

    def test_second_order_perturbation_still_matches(self):
        seq = harmonic_sequence(ORIGIN, E1, perp=E2)
        v = classify_sequence(seq, ORIGIN, E1)
        assert v.matches_filter and v.agreement

    def test_wrong_direction_rejected_with_witnesses(self):
        seq = harmonic_sequence(ORIGIN, E2)
        v = classify_sequence(seq, ORIGIN, E1)
        assert not v.matches_filter
        assert v.agreement

    def test_divergent_rejected(self):
        h = np.arange(1, 10_001, dtype=float)
        seq = np.stack([np.cos(h), np.sin(h)], axis=-1) * 3.0
        v = classify_sequence(seq, ORIGIN, E1)
        assert not v.converges_to_point
        assert not v.matches_filter
        assert v.agreement

    def test_degenerate_term_raises(self):
        seq = np.vstack([harmonic_sequence(ORIGIN, E1, n=100), ORIGIN[None]])
        with pytest.raises(DegenerateTerm):
            classify_sequence(seq, ORIGIN, E1)

    def test_direction_separation(self):
        # mu_{x,u} = mu_{x,u'} iff u = u'
        u2 = unit(np.array([1.0, 0.2]))
        seq = harmonic_sequence(ORIGIN, u2)
        assert classify_sequence(seq, ORIGIN, u2).matches_filter
        assert not classify_sequence(seq, ORIGIN, E1).matches_filter

    def test_randomized_cross_validation(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = unit(rng.normal(size=2))
            kind = rng.integers(3)
            if kind == 0:
                seq = harmonic_sequence(ORIGIN, u)
            elif kind == 1:
                h = np.arange(1, 10_001, dtype=float)
                seq = ((-1.0) ** h / h)[:, None] * u
            else:
                h = np.arange(1, 10_001, dtype=float)
                seq = np.stack([np.cos(h), np.sin(h)], axis=-1) * 2.0
            v = classify_sequence(seq, ORIGIN, u)
            assert v.agreement
            assert v.matches_filter == (kind == 0)


def _mixed_rows(b: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b sequences of SEQUENCE_TERMS plane terms, cycling through five kinds:
    with a direction, along another direction, alternating (its tail's
    directions cancel exactly), divergent, and with a direction but a u of
    length 3 that the classifier normalises."""
    h = np.arange(1, SEQUENCE_TERMS + 1, dtype=float)[:, None]
    seqs, xs, us = [], [], []
    for i in range(b):
        x = rng.uniform(-1, 1, 2)
        u = unit(rng.normal(size=2))
        perp = np.array([-u[1], u[0]])
        kind = i % 5
        if kind == 0:
            seq = x + u / h + perp / h ** 2
        elif kind == 1:
            seq = x + perp / h
        elif kind == 2:
            x, u = ORIGIN, E1
            seq = (-1.0) ** h / h * E1
        elif kind == 3:
            seq = x + 2.0 * np.hstack([np.cos(h), np.sin(h)])
        else:
            seq = x + u / h
            u = 3.0 * u
        seqs.append(seq)
        xs.append(x)
        us.append(u)
    return np.array(seqs), np.array(xs), np.array(us)


def _assert_same_verdict(v, ref):
    assert v.converges_to_point == ref.converges_to_point
    assert v.matches_filter == ref.matches_filter
    assert v.agreement == ref.agreement
    if ref.direction_limit is None:
        assert v.direction_limit is None
    else:
        assert v.direction_limit.tobytes() == ref.direction_limit.tobytes()


class TestClassifySequencesBatch:
    """classify_sequences against the per-sequence oracle, field by field."""

    CHUNK = SEQUENCE_BATCH_ELEMENTS // (2 * SEQUENCE_TERMS)

    @pytest.mark.parametrize("b", [1, 2, 5, CHUNK + 1])
    def test_matches_the_oracle(self, b):
        seqs, xs, us = _mixed_rows(b, np.random.default_rng(b))
        got = classify_sequences(seqs, xs, us)
        assert len(got) == b
        for v, seq, x, u in zip(got, seqs, xs, us):
            _assert_same_verdict(v, classify_sequence_oracle(seq, x, u))
        # every kind gives its verdict
        kinds = [(v.converges_to_point, v.direction_limit is not None,
                  v.matches_filter, v.agreement) for v in got[:5]]
        assert kinds == [(True, True, True, True), (True, True, False, True),
                         (True, False, False, True),
                         (False, False, False, True),
                         (True, True, True, True)][:b]

    def test_one_row_call_is_classify_sequence(self):
        seqs, xs, us = _mixed_rows(5, np.random.default_rng(0))
        for seq, x, u, v in zip(seqs, xs, us, classify_sequences(seqs, xs, us)):
            _assert_same_verdict(classify_sequence(seq, x, u), v)

    def test_one_degenerate_row_raises(self):
        seqs, xs, us = _mixed_rows(3, np.random.default_rng(1))
        seqs[1, 700] = xs[1]
        with pytest.raises(DegenerateTerm):
            classify_sequences(seqs, xs, us)

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [np.nan, 1.0]],
                             ids=["zero", "nan"])
    def test_zero_or_nan_direction_in_one_row_raises(self, bad):
        seqs, xs, us = _mixed_rows(3, np.random.default_rng(2))
        us[2] = bad
        with pytest.raises(NonUnitDirection):
            classify_sequences(seqs, xs, us)


class TestCurveFilters:
    def test_line_curve_equals_directional(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(-2, 2, size=(2000, 2))
        cf = curve_filter(LINE)
        for eps, sig in ((0.5, 0.4), (0.2, 0.2)):
            cone = ConeGenerator(ORIGIN, E1, eps, sig)
            assert np.array_equal(cf.contains(eps, sig, y), v_plus_contains(cone, y))

    def test_reparametrization_invariance(self):
        c2 = CurveSpec("line_reparam", lambda t: LINE(t ** 3 + t), -0.6, 0.6)
        rng = np.random.default_rng(6)
        y = rng.uniform(-1, 1, size=(2000, 2))
        eps = 0.3
        # c2([0, eps]) = LINE([0, eps^3 + eps]) as point sets
        a = curve_filter(c2).contains(eps, 0.4, y)
        b = curve_filter(LINE).contains(eps ** 3 + eps, 0.4, y)
        assert np.array_equal(a, b)

    def test_membership_matches_arc_distance_oracle(self):
        c = CurveSpec("arc", lambda t: np.stack([np.sin(t), 1 - np.cos(t)], axis=-1),
                      -1.0, 0.8)
        rng = np.random.default_rng(8)
        y = rng.uniform(-1, 1, size=(400, 2))
        cf = curve_filter(c)
        for eps, mu in ((0.5, 0.4), (2.0, 0.2)):
            member, converged = cf.membership(eps, mu, y)
            assert converged
            assert np.array_equal(cf.contains(eps, mu, y), member)
            thresh = mu * np.linalg.norm(y - cf.x, axis=-1)
            oracle = arc_distance(y, c, eps)
            clear = np.abs(oracle - thresh) > 1e-6
            assert np.array_equal(member[clear], (oracle < thresh)[clear])
            assert 0 < member.sum() < len(y)

    def test_membership_keeps_leading_axes(self):
        cf = curve_filter(LINE)
        y = np.array([[[0.3, 0.01], [0.3, 0.5]], [[-0.2, 0.0], [0.0, 0.0]]])
        member, converged = cf.membership(0.5, 0.4, y)
        assert converged
        assert member.tolist() == [[True, False], [False, False]]
        assert cf.contains(0.5, 0.4, y[0, 0]).shape == ()

    def test_bilipschitz_gate(self):
        from filterbench.errors import CurveNotBiLipschitz
        flat = CurveSpec("flat", lambda t: np.stack([0 * t, 0 * t], axis=-1),
                         -1.0, 1.0)
        with pytest.raises(CurveNotBiLipschitz):
            curve_filter(flat)

    def test_trad1_transport_along_curve(self):
        # bi-Lipschitz f maps on-arc sequences of c to on-arc sequences of f o c
        f = BUILTIN_MAPS["parabolic_shear"]
        c = CurveSpec("arc", lambda t: np.stack([np.sin(t), 1 - np.cos(t)], axis=-1),
                      -1.0, 1.0)
        fc = CurveSpec("image", lambda t: f(c(t)), -1.0, 1.0)
        t_h = 0.3 / np.arange(1, 200, dtype=float)
        images = f(c(t_h))
        out = curve_filter(fc)
        for eps, mu in ((0.5, 0.4), (0.1, 0.2)):
            assert np.all(out.contains(eps, mu, images[t_h < eps]))


class TestBound:
    def test_valid_witness_passes(self):
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        y = np.array([0.5, 0.1])
        assert v_plus_contains(g, y)
        assert check_bound_batch(ORIGIN, np.array([[0.5, 0.0]]), y[None],
                                 0.5).all()

    def test_invalid_witness_rejected(self):
        # lambda = 0 in the second row: d(y, x) < mu d(x, y) is impossible
        # for mu < 1, and one bad row rejects the batch
        y = np.array([[0.5, 0.1], [0.5, 0.1]])
        with pytest.raises(InvalidWitness):
            check_bound_batch(ORIGIN, np.array([[0.5, 0.0], ORIGIN]), y, 0.5)

    def test_sampled_members_all_pass(self):
        rng = np.random.default_rng(8)
        g = ConeGenerator(ORIGIN, E1, 1.0, 0.5)
        y = rng.uniform(-2, 2, size=(20_000, 2))
        member = v_plus_contains(g, y)
        y = y[member]
        # argmin witness: clamped projection onto the axis segment
        lam = np.clip(y[:, 0], 0.0, 1.0)
        arc = np.stack([lam, np.zeros_like(lam)], axis=-1)
        assert check_bound_batch(ORIGIN, arc, y, 0.5).all()


class TestPairFilters:
    def test_on_segment_membership(self):
        mu = PairDirectionalFilter(E1)
        x = np.array([2.0, -1.0])
        for delta in (0.1, 0.4):
            assert mu.contains(0.5, 0.3, x, x + delta * E1)

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        mu = PairDirectionalFilter(unit(np.array([1.0, 2.0])))
        x = rng.uniform(-2, 2, size=(10_000, 2))
        y = rng.uniform(-2, 2, size=(10_000, 2))
        t = rng.uniform(-5, 5, size=(10_000, 2))
        assert np.array_equal(mu.contains(0.5, 0.4, x, y),
                              mu.contains(0.5, 0.4, x + t, y + t))

    def test_swap_gives_opposite_direction(self):
        rng = np.random.default_rng(10)
        mu = PairDirectionalFilter(E1)
        x = rng.uniform(-2, 2, size=(10_000, 2))
        y = rng.uniform(-2, 2, size=(10_000, 2))
        assert np.array_equal(mu.contains(0.5, 0.4, y, x),
                              PairDirectionalFilter(-E1).contains(0.5, 0.4, x, y))

    def test_refines_metric_uniformity(self):
        # every cone member pair sits inside the metric ball of envelope radius
        rng = np.random.default_rng(11)
        mu = PairDirectionalFilter(E1)
        x = rng.uniform(-2, 2, size=(10_000, 2))
        y = rng.uniform(-4, 4, size=(10_000, 2))
        member = mu.contains(1.0, 0.5, x, y)
        inside = metric_uniformity_contains(envelope_radius(1.0, 0.5), x, y)
        assert not np.any(member & ~inside)

    def test_certificate_fits_ball(self):
        eps, sig = uniformity_refinement_certificate(0.2)
        assert envelope_radius(eps, sig) <= 0.2

    def test_ball_triangle_certificate(self):
        rng = np.random.default_rng(12)
        x, y, z = rng.uniform(-1, 1, size=(3, 5000, 2))
        half = metric_uniformity_contains(0.5, x, y) & \
            metric_uniformity_contains(0.5, y, z)
        assert np.all(metric_uniformity_contains(1.0, x, z)[half])

    def test_ball_symmetry(self):
        rng = np.random.default_rng(13)
        x, y = rng.uniform(-1, 1, size=(2, 5000, 2))
        assert np.array_equal(metric_uniformity_contains(0.3, x, y),
                              metric_uniformity_contains(0.3, y, x))


class TestTransport:
    def test_identity(self):
        f = BUILTIN_MAPS["identity2d"]
        out = transport_via_sequences(f, ORIGIN, E1)
        assert out.residual_angle < 1e-9

    def test_linear_matches_matrix_action(self):
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        f = linear_map(a)
        for u in (E1, E2, unit(np.array([1.0, -1.0]))):
            out = transport_via_sequences(f, np.array([0.3, -0.2]), u)
            assert out.residual_angle < 1e-6
            assert float(angle_between(out.expected, unit(a @ u))) < 1e-12

    def test_parabolic_shear_at_origin(self):
        # Df(0) = identity, so the image direction is u itself
        f = BUILTIN_MAPS["parabolic_shear"]
        out = transport_via_sequences(f, ORIGIN, E2)
        assert out.residual_angle < 1e-6
        assert float(angle_between(out.direction, E2)) < 1e-6

    def test_all_builtin_nonlinear(self):
        rng = np.random.default_rng(14)
        for f in BUILTIN_MAPS.values():
            x = rng.uniform(-0.5, 0.5, size=f.dim)
            u = unit(rng.normal(size=f.dim))
            out = transport_via_sequences(f, x, u, rng=rng)
            assert out.residual_angle < 1e-6, f.name

    def test_singular_jacobian_rejected(self):
        from filterbench.maps import MapSpec
        collapse = MapSpec("collapse", 2,
                           lambda p: np.stack([p[..., 0], 0 * p[..., 1]], axis=-1),
                           lambda p: np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(SingularJacobian):
            transport_via_sequences(collapse, ORIGIN, E1)


class TestCommutation:
    def test_orthogonal_directions_commute(self):
        verdict, witness = check_commutation_directional(E1, E2)
        assert verdict == "commute"

    def test_random_directions_never_counterexample(self):
        rng = np.random.default_rng(15)
        for seed in range(10):
            u = unit(rng.normal(size=2))
            v = unit(rng.normal(size=2))
            verdict, _ = check_commutation_directional(u, v, samples=2000, seed=seed)
            assert verdict in ("commute", "inconclusive")
