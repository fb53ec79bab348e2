import dataclasses
import json

import numpy as np
import pytest

from filterbench import flows as fl
from filterbench import suites
from filterbench.cli import main
from filterbench.errors import (
    DomainViolation,
    InverseResidualTooLarge,
    RecipeUnsatisfiable,
    UndeclaredBounds,
)
from filterbench.flows import (
    BUILTIN_FLOWS,
    check_flow_conditions,
    check_flow_transport,
    flow_pair_contains,
    lemacon_construct,
    linear_flow,
    pushforward_flow,
    rotation_flow,
    scaling_flow,
    step1_diagonal_check,
    step3_composition_check,
    translation_flow,
)
from filterbench.maps import BUILTIN_MAPS, MapSpec, linear_map
from filterbench.metric_filters import PairDirectionalFilter
from filterbench.suites import RunConfig
from oracles import rotation as broadcast_rotation
from oracles import sample_orbit_members as broadcast_orbit_members
from oracles import translation as broadcast_translation


@pytest.fixture(scope="module")
def reports():
    return {name: check_flow_conditions(f, samples=800, seed=3)
            for name, f in BUILTIN_FLOWS.items()}


class TestConditions:
    @pytest.mark.parametrize("name", list(BUILTIN_FLOWS))
    def test_all_conditions_pass(self, reports, name):
        rep = reports[name]
        assert rep.all_pass, rep.passes
        assert rep.converged

    def test_isometries_have_unit_m(self, reports):
        for name in ("translation", "rotation"):
            for _, (_, _, m) in reports[name].m_table.items():
                assert m == pytest.approx(1.0, abs=1e-9)

    def test_scaling_m_matches_exponential(self, reports):
        # two-sided ratio of e^t x is exactly e^t, so M(t) = e^{|t|}
        for t, (_, _, m) in reports["scaling"].m_table.items():
            assert m == pytest.approx(np.exp(abs(t)), abs=1e-6)

    def test_exact_group_flows_have_zero_residuals(self, reports):
        assert reports["translation"].identity_residual == 0.0
        # (s + t) u vs s u + t u differs by one rounding step
        assert reports["translation"].group_residual < 1e-15
        assert reports["rotation"].group_residual < 1e-12

    def test_chain_constant_at_least_one(self, reports):
        for rep in reports.values():
            assert rep.c_constant >= 1.0

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            BUILTIN_FLOWS["translation"](2.0, np.zeros((1, 2)))

    def test_three_dimensional_flow(self):
        assert check_flow_conditions(translation_flow([1, 0, 0]),
                                     samples=300).all_pass


class TestUnconvergedCheckE:
    """Check (e) rows left undecided at the subdivision cap make the
    conditions verdict inconclusive instead of passing."""

    @pytest.fixture
    def unconverged(self, monkeypatch):
        real = fl.arc_membership
        monkeypatch.setattr(fl, "arc_membership",
                            lambda *args: (*real(*args)[:2], False))

    def test_report_carries_the_flag(self, unconverged):
        rep = check_flow_conditions(BUILTIN_FLOWS["translation"], samples=200,
                                    seed=1)
        assert rep.all_pass and not rep.converged

    def test_suite_record_is_inconclusive(self, unconverged):
        records = {r.check_id: r for r in
                   suites.run_suite("flows", RunConfig(samples=200)).records}
        rec = records["conditions-translation"]
        assert rec.verdict == "inconclusive"
        assert rec.witness["converged"] is False

    def test_cli_record_is_inconclusive(self, unconverged, capsys):
        code = main(["flow", "conditions", "translation", "--samples", "200"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["records"][0]["verdict"] == "inconclusive"


# the built-in flows, their reversals, a non-nilpotent linear flow and a
# pushed-forward flow
TIME_ARRAY_FLOWS = {
    **BUILTIN_FLOWS,
    **{f"{name}_reversed": f.reversed() for name, f in BUILTIN_FLOWS.items()},
    "linear_spiral": linear_flow([[0.3, -1.0], [1.0, -0.2]]),
    "shear_half_pushforward_rotation": pushforward_flow(
        BUILTIN_MAPS["shear_half"], BUILTIN_FLOWS["rotation"]),
}


class TestTimeArrays:
    @pytest.mark.parametrize("name", sorted(TIME_ARRAY_FLOWS))
    def test_matches_per_time_calls(self, name):
        flow = TIME_ARRAY_FLOWS[name]
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (300, 2))
        ts = rng.uniform(-fl.T_MAX, fl.T_MAX, len(x))
        grid = rng.uniform(-fl.T_MAX, fl.T_MAX, 7)
        got = [flow(ts, x), flow(grid[:, None], x)]
        want = [np.stack([flow(float(t), xi[None])[0] for t, xi in zip(ts, x)]),
                np.stack([flow(float(t), x) for t in grid])]
        for g, w in zip(got, want):
            assert g.shape == w.shape
            if name == "linear_spiral":
                # a stack of matrix exponentials shares one squaring count
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
            else:
                assert np.array_equal(g, w)

    def test_one_time_outside_the_domain_raises(self):
        flow = BUILTIN_FLOWS["rotation"]
        for f in (flow, flow.reversed()):
            with pytest.raises(DomainViolation,
                               match=r"^t=1\.5 outside \[-1\.0, 1\.0\]$"):
                f(np.array([0.1, 1.5, -0.2]), np.zeros((3, 2)))
        with pytest.raises(DomainViolation):
            flow(np.array([[0.1], [np.nan]]), np.zeros((4, 2)))


@pytest.mark.parametrize("lead", [(500,), (3, 200), (0,), (3, 0)])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_row_norms_equal_numpy_bit_for_bit(d, lead):
    rng = np.random.default_rng(d)
    shape = (*lead, d)
    x = rng.normal(size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    got = fl._norms(x)
    want = np.linalg.norm(x, axis=-1)
    assert got.shape == want.shape == lead
    assert np.array_equal(got, want)


# (time shape, point shape) of each evaluator call: one time, a time per
# row, a column of arc parameters against a batch, and a column of base
# times against a batch of batches, as check (d) makes it
EVALUATOR_SHAPES = [((), (300, 2)), ((300,), (300, 2)), ((17, 1), (300, 2)),
                    ((5, 1), (300, 2)), ((64, 1), (64, 256, 2))]


class TestPerCoordinateForms:
    """The evaluators and the orbit sampler write one coordinate at a time;
    each equals the broadcast form of tests/oracles.py bit for bit."""

    @pytest.mark.parametrize("t_shape, x_shape", EVALUATOR_SHAPES)
    def test_evaluators_match_the_broadcast_form(self, t_shape, x_shape):
        rng = np.random.default_rng(len(x_shape) + sum(t_shape))
        t = rng.uniform(-fl.T_MAX, fl.T_MAX, t_shape)
        x = rng.uniform(-1.0, 1.0, x_shape)
        x3 = rng.uniform(-1.0, 1.0, x_shape[:-1] + (3,))
        u, u3 = rng.normal(size=2), rng.normal(size=3)
        cases = [(translation_flow(u), broadcast_translation(u, t, x), x),
                 (translation_flow(u3), broadcast_translation(u3, t, x3), x3),
                 (rotation_flow(1.0), broadcast_rotation(1.0, t, x), x),
                 (rotation_flow(-0.7), broadcast_rotation(-0.7, t, x), x)]
        for flow, want, points in cases:
            for got in (flow(t, points), flow.reversed()(-t, points)):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", [
        "translation", "rotation", "scaling", "linear_shear",
        "exp_stretch*rotation", "translation3d", "linear3d"])
    def test_orbit_sampler_matches_the_broadcast_form(self, name):
        flows = {**BUILTIN_FLOWS,
                 "exp_stretch*rotation": pushforward_flow(
                     BUILTIN_MAPS["exp_stretch"], BUILTIN_FLOWS["rotation"]),
                 "translation3d": translation_flow([0.6, 0.0, -0.8]),
                 "linear3d": linear_flow([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5],
                                          [0.0, -0.5, 0.0]])}
        flow = flows[name]
        for seed in (1, 2):
            x = np.random.default_rng(seed).uniform(-1.0, 1.0, (400, flow.dim))
            rngs = [np.random.default_rng(seed + 10) for _ in range(2)]
            got = fl._sample_orbit_members(flow, x, 0.1, 0.3, rngs[0])
            want = broadcast_orbit_members(flow, x, 0.1, 0.3, rngs[1])
            assert got[0].tobytes() == want[0].tobytes()
            assert np.array_equal(got[1], want[1]) and got[1].any()
            assert got[2] == want[2]
            # the same draws, in the same order
            assert rngs[0].random() == rngs[1].random()


class TestPairMembership:
    def test_on_orbit_point(self):
        f = BUILTIN_FLOWS["rotation"]
        x = np.array([[1.0, 0.0]])
        y = f(0.05, x)
        ok, conv = flow_pair_contains(f, 0.1, 0.3, x, y)
        assert conv and ok.all()

    def test_backward_point_excluded(self):
        f = translation_flow([1.0, 0.0])
        x = np.array([[0.0, 0.0]])
        y = np.array([[-0.05, 0.0]])
        ok, conv = flow_pair_contains(f, 0.1, 0.4, x, y)
        assert conv and not ok.any()

    def test_translation_orbit_equals_directional_pair_filter(self):
        # straight orbits make the flow filter coincide with mu_u
        rng = np.random.default_rng(7)
        u = np.array([0.6, 0.8])
        f = translation_flow(u)
        mu_u = PairDirectionalFilter(u)
        x = rng.uniform(-1, 1, (10_000, 2))
        y = x + rng.normal(scale=0.05, size=x.shape)
        via_flow, conv = flow_pair_contains(f, 0.1, 0.3, x, y)
        via_pair = mu_u.contains(0.1, 0.3, x, y)
        assert conv
        assert np.array_equal(via_flow, via_pair)

    def test_reversal_swaps_forward_and_backward(self):
        # the reversed flow's forward filter is the backward filter
        rng = np.random.default_rng(1)
        f = BUILTIN_FLOWS["scaling"]
        x = rng.uniform(-1, 1, (2000, 2))
        y = x + rng.normal(scale=0.02, size=x.shape)
        fwd_of_rev, c1 = flow_pair_contains(f.reversed(), 0.1, 0.3, x, y)
        bwd, c2 = flow_pair_contains(f, 0.1, 0.3, x, y, sign="-")
        assert c1 and c2
        assert np.array_equal(fwd_of_rev, bwd)


class TestLemaconRecipe:
    @pytest.mark.parametrize("name", ["translation", "rotation", "scaling"])
    def test_zero_violations(self, reports, name):
        out = lemacon_construct(BUILTIN_FLOWS[name], 0.1, 0.5, reports[name],
                                samples=20_000, seed=5)
        assert out["violations"] == 0
        assert out["converged"]
        assert out["checked"] > 10_000

    def test_constructed_constants(self, reports):
        out = lemacon_construct(BUILTIN_FLOWS["translation"], 0.1, 0.5,
                                reports["translation"], samples=1000)
        assert 4 * out["mu_prime"] < min(0.5, 0.5)
        assert out["eps_prime"] <= 0.1
        assert 2 * out["sigma"] <= out["eps1"]

    def test_degenerate_aperture_rejected(self, reports):
        with pytest.raises(DomainViolation):
            lemacon_construct(BUILTIN_FLOWS["translation"], 0.1, 1.0,
                              reports["translation"])

    def test_unsatisfiable_without_bounded_m(self, reports):
        rep = reports["translation"]
        bad = dataclasses.replace(rep, m_table={
            t: (lo, hi, 5.0) for t, (lo, hi, _) in rep.m_table.items()})
        with pytest.raises(RecipeUnsatisfiable):
            lemacon_construct(BUILTIN_FLOWS["translation"], 0.1, 0.5, bad)


class TestStepRecipes:
    @pytest.mark.parametrize("name", ["translation", "rotation", "scaling"])
    def test_diagonal_recipe(self, reports, name):
        out = step1_diagonal_check(BUILTIN_FLOWS[name], 0.01, reports[name],
                                   samples=20_000, seed=5)
        assert out["violations"] == 0
        assert out["converged"]

    def test_diagonal_bad_target(self, reports):
        with pytest.raises(DomainViolation):
            step1_diagonal_check(BUILTIN_FLOWS["translation"], -1.0,
                                 reports["translation"])

    @pytest.mark.parametrize("name", ["translation", "rotation", "scaling"])
    def test_composition_recipe(self, reports, name):
        out = step3_composition_check(BUILTIN_FLOWS[name], 0.2, 0.5,
                                      reports[name], samples=20_000, seed=5)
        assert out["violations"] == 0
        assert out["converged"]
        assert 2 * out["eps_prime"] < 0.2
        assert 4 * out["mu_prime"] * out["c_constant"] < 0.5

    def test_composition_bad_radius(self, reports):
        with pytest.raises(DomainViolation):
            step3_composition_check(BUILTIN_FLOWS["translation"], -0.2, 0.5,
                                    reports["translation"])

    def test_composition_infeasible_aperture(self, reports):
        with pytest.raises(RecipeUnsatisfiable):
            step3_composition_check(BUILTIN_FLOWS["translation"], 0.2, 1e-5,
                                    reports["translation"])


class TestPushforward:
    def test_identity_map_preserves_flow(self):
        f = BUILTIN_MAPS["identity2d"]
        flow = BUILTIN_FLOWS["rotation"]
        pushed = pushforward_flow(f, flow)
        x = np.random.default_rng(0).uniform(-1, 1, (100, 2))
        assert np.allclose(pushed(0.3, x), flow(0.3, x), atol=1e-12)

    def test_linear_conjugation_of_translation(self):
        # A * (x + t u) pattern: conjugated flow translates by A u
        a = np.array([[2.0, 1.0], [0.0, 1.0]])
        f = linear_map(a)
        u = np.array([1.0, 1.0])
        pushed = pushforward_flow(f, translation_flow(u))
        x = np.random.default_rng(1).uniform(-1, 1, (50, 2))
        assert np.allclose(pushed(0.25, x), x + 0.25 * (a @ u), atol=1e-9)

    def test_conjugated_flow_passes_conditions(self):
        pushed = pushforward_flow(BUILTIN_MAPS["shear_half"],
                                  BUILTIN_FLOWS["rotation"])
        rep = check_flow_conditions(pushed, samples=500, seed=2)
        for cond in ("a", "b", "d"):
            assert rep.passes[cond], (cond, rep.passes)

    def test_map_without_inverse_rejected(self):
        no_inv = BUILTIN_MAPS["coupled_sine"]
        with pytest.raises(InverseResidualTooLarge):
            pushforward_flow(no_inv, BUILTIN_FLOWS["translation"])

    def test_functorial_on_samples(self):
        f = BUILTIN_MAPS["parabolic_shear"]
        g = BUILTIN_MAPS["shear_half"]
        flow = BUILTIN_FLOWS["translation"]
        # g is linear, so D(g f) = Dg Df and D^2(g f) = Dg D^2 f
        norm = np.linalg.norm(g.jacobian(np.zeros(2)), 2)
        gf = MapSpec("gf", 2, lambda p: g(f(p)), f.jacobian,
                     lambda p: f.inverse(g.inverse(p)),
                     hessian_bound=lambda p, r: norm * f.hessian_bound(p, r),
                     jacobian_bound=lambda p, r: norm * f.jacobian_bound(p, r))
        lhs = pushforward_flow(gf, flow)
        rhs = pushforward_flow(g, pushforward_flow(f, flow))
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1000, 2))
        worst = 0.0
        for t in rng.uniform(-0.5, 0.5, 10):
            worst = max(worst, float(np.max(
                np.linalg.norm(lhs(t, x) - rhs(t, x), axis=-1))))
        assert worst <= 1e-9

    def test_expm_matches_closed_forms(self):
        # linear generator flows against their closed-form counterparts
        rot = linear_flow([[0.0, -1.0], [1.0, 0.0]])
        x = np.random.default_rng(2).uniform(-1, 1, (50, 2))
        assert np.allclose(rot(0.7, x), rotation_flow(1.0)(0.7, x), atol=1e-12)
        scale = linear_flow([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(scale(0.4, x), scaling_flow(1.0)(0.4, x), atol=1e-12)


# every built-in flow, and two 3-d flows for the 3-d maps
FLOWS_BY_DIM = {2: BUILTIN_FLOWS,
                3: {"translation3d": translation_flow([0.6, 0.0, -0.8]),
                    "linear3d": linear_flow([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.5],
                                             [0.0, -0.5, 0.0]])}}
INVERTIBLE_MAPS = sorted(m for m, spec in BUILTIN_MAPS.items()
                         if spec.inverse is not None)


class TestDeclaredBounds:
    """Every flow that can be pushed forward carries both bounds, and a map
    that declares none is refused."""

    @pytest.mark.parametrize("mname", INVERTIBLE_MAPS)
    def test_every_pushed_flow_declares_both_bounds(self, mname):
        f = BUILTIN_MAPS[mname]
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (50, f.dim))
        for flow in FLOWS_BY_DIM[f.dim].values():
            pushed = pushforward_flow(f, flow)
            for bound in (pushed.curvature, pushed.speed):
                value = bound(x, 0.1)
                assert value.shape == (len(x),)
                assert np.all(np.isfinite(value)) and np.all(value >= 0.0)

    @pytest.mark.parametrize("missing", [("hessian_bound", "jacobian_bound"),
                                         ("hessian_bound",),
                                         ("jacobian_bound",)])
    def test_map_without_bounds_is_refused(self, missing):
        spec = dataclasses.replace(BUILTIN_MAPS["shear_half"], name="unbounded",
                                   **dict.fromkeys(missing))
        with pytest.raises(UndeclaredBounds, match="unbounded"):
            pushforward_flow(spec, BUILTIN_FLOWS["translation"])

    def test_cli_refuses_a_map_without_bounds(self, capsys, monkeypatch):
        # shear_half without its derivative bounds, as a built-in map
        monkeypatch.setitem(BUILTIN_MAPS, "unbounded", dataclasses.replace(
            BUILTIN_MAPS["shear_half"], name="unbounded", hessian_bound=None,
            jacobian_bound=None))
        code = main(["flow", "transport", "unbounded", "translation"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "UndeclaredBounds"
        assert "unbounded" in err["message"]

    @pytest.mark.parametrize("mname", ["cubic_shear",
                                       "vertical_parabolic_shear",
                                       "exp_stretch"])
    def test_cli_transport_through_a_newly_bounded_map(self, mname, capsys):
        code = main(["flow", "transport", mname, "translation",
                     "--samples", "200"])
        rec = json.loads(capsys.readouterr().out)["records"][0]
        assert code == 0
        assert rec["verdict"] == "pass"


class TestTransport:
    @pytest.mark.parametrize("mname", [
        "identity2d", "rotation_quarter", "shear_half",
        "parabolic_shear", "sine_shear",
    ])
    def test_bilipschitz_maps_commute(self, mname):
        verdict, witness = check_flow_transport(
            BUILTIN_MAPS[mname], BUILTIN_FLOWS["translation"],
            samples=500, seed=9)
        assert verdict == "commute", witness

    def test_rotation_flow_through_linear_map(self):
        verdict, witness = check_flow_transport(
            BUILTIN_MAPS["shear_half"], BUILTIN_FLOWS["rotation"],
            samples=500, seed=9)
        assert verdict == "commute", witness

    def test_every_pushed_flow_a_suite_builds_is_certified(self,
                                                          monkeypatch):
        # pushforward-conditions and the transport maps push flows whose
        # curvature and speed the maps' declared bounds certify: both are
        # finite on the sampled region, so every arc has a certified C
        built = []
        pushforward = fl.pushforward_flow

        def recording(f, flow, seed=0):
            built.append(pushforward(f, flow, seed))
            return built[-1]

        monkeypatch.setattr(fl, "pushforward_flow", recording)
        suites.run_suite("flows", RunConfig(seed=1, samples=50))
        assert {p.name for p in built} == {
            f"{BUILTIN_MAPS[m].name}_pushforward_{flow}" for m, flow in
            [("shear_half", "rotation")]
            + [(m, "translation") for m in suites.TRANSPORT_MAPS]}
        x = np.random.default_rng(3).uniform(-1.0, 1.0, (100, 2))
        for p in built:
            assert np.all(np.isfinite(p.curvature(x, 0.1)))
            assert np.all(np.isfinite(p.speed(x, 0.1)))

    def test_collapse_map_rejected(self):
        collapse = MapSpec("collapse", 2,
                           lambda p: np.stack([p[..., 0], 0.0 * p[..., 1]],
                                              axis=-1),
                           lambda p: np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InverseResidualTooLarge):
            check_flow_transport(collapse, BUILTIN_FLOWS["translation"])
