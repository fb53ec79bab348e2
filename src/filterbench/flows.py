"""One-parameter flow machinery: condition checkers (a)-(e), flow pair
filters, reversal, the aperture-transfer lemma recipe, diagonal and
composition recipes, flow pushforward and the transport identity.

Flows act on Euclidean carriers; all verdicts are sampled and seeded.
Pair membership goes through geometry.arc_membership: each orbit arc is a
uniform polyline, doubled from 17 vertices towards a 2^14 cap, and a row
is decided once its distance d, plus or minus the one-level change
err = |d - d_previous|, falls on one side of mu * d(x, y), or once
err <= 1e-9 (1 + d).  That change is an error estimate, not a certified
chord bound; rows still undecided at the cap are reported through the
converged flag, never silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DomainViolation,
    RecipeUnsatisfiable,
)
from .geometry import arc_membership
from .maps import MapSpec


@dataclass(frozen=True)
class Flow:
    """Evaluator F(t, x) on [a, b] x R^dim, vectorized over x (N, d)."""

    name: str
    dim: int
    fn: Callable[[float, np.ndarray], np.ndarray]
    a: float = -1.0
    b: float = 1.0

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        if not self.a <= t <= self.b:
            raise DomainViolation(f"t={t} outside [{self.a}, {self.b}]")
        return self.fn(t, np.asarray(x, dtype=float))

    def reversed(self) -> "Flow":
        return Flow(self.name + "_reversed", self.dim,
                    lambda t, x: self.fn(-t, x), -self.b, -self.a)


def translation_flow(u) -> Flow:
    u = np.asarray(u, dtype=float)
    return Flow("translation", len(u), lambda t, x: x + t * u)


def rotation_flow(omega: float = 1.0) -> Flow:
    def fn(t, x):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return x @ np.array([[c, s], [-s, c]])
    return Flow("rotation", 2, fn)


def scaling_flow(rate: float = 1.0) -> Flow:
    return Flow("scaling", 2, lambda t, x: np.exp(rate * t) * x)


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential for small matrices."""
    n = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(), 1e-16)))) + 4)
    b = a / (2 ** n)
    out = np.eye(len(a))
    term = np.eye(len(a))
    for k in range(1, 20):
        term = term @ b / k
        out = out + term
    for _ in range(n):
        out = out @ out
    return out


def linear_flow(generator) -> Flow:
    g = np.asarray(generator, dtype=float)
    return Flow("linear", g.shape[0], lambda t, x: x @ _expm(t * g).T)


BUILTIN_FLOWS: dict[str, Flow] = {
    "translation": translation_flow([1.0, 0.0]),
    "rotation": rotation_flow(1.0),
    "scaling": scaling_flow(1.0),
    "linear_shear": linear_flow([[0.0, 1.0], [0.0, 0.0]]),
}


# --- orbit arc membership ---------------------------------------------------

def _orbit_arcs(flow: Flow, x: np.ndarray):
    """Arc evaluator of geometry.arc_membership: the orbit arcs of x[rows]."""
    def bind(rows):
        xr = x[rows]
        return lambda ts: np.stack([flow(t, xr) for t in ts])
    return bind


def flow_pair_contains(flow: Flow, eps: float, mu: float,
                       x: np.ndarray, y: np.ndarray,
                       sign: str = "+") -> tuple[np.ndarray, bool]:
    """Membership of the pairs (x, y) in V+(F, eps, mu) (or V- for '-').

    The distance from y to the orbit arc of x is refined per row by
    geometry.arc_membership until its one-level error estimate can no
    longer flip the comparison against mu * d(x, y); rows still ambiguous
    at the subdivision cap make the converged flag false.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d_xy = np.linalg.norm(y - x, axis=-1)
    _, member, converged = arc_membership(_orbit_arcs(flow, x), y, mu * d_xy,
                                          eps, sign)
    return (d_xy > 0) & member, converged


# --- condition checkers ------------------------------------------------------

@dataclass
class FlowConditionsReport:
    identity_residual: float
    equicontinuity: dict
    m_table: dict  # t -> (inf ratio, sup ratio, M(t))
    group_residual: float
    c_grid: dict
    c_constant: float
    passes: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def m_sup(self, radius: float) -> float:
        vals = [m for t, (_, _, m) in self.m_table.items() if abs(t) <= radius]
        return max(vals) if vals else float("inf")


DEFAULT_M_GRID = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4)
DEFAULT_C_GRID = ((1e-1, 1e-2, 1e-3, 1e-4), (0.4, 0.2, 0.1, 0.05))


def _sample_orbit_members(flow: Flow, x: np.ndarray, eps: float, mu: float,
                          rng: np.random.Generator, sign: str = "+"):
    """Points y with (x, y) in V+(F, eps, mu), built near the orbit with a
    conservative transverse slack and then verified."""
    ts = rng.uniform(0.2 * eps, eps, len(x))
    if sign == "-":
        ts = -ts
    on_orbit = _orbit_points(flow, x, ts)
    d_base = np.linalg.norm(on_orbit - x, axis=-1)
    w = rng.normal(size=x.shape)
    w /= np.maximum(np.linalg.norm(w, axis=-1, keepdims=True), 1e-12)
    y = on_orbit + (0.25 * mu * d_base)[:, None] * w
    member, converged = flow_pair_contains(flow, abs(eps), mu, x, y, sign)
    return y, member, converged


def _orbit_points(flow: Flow, x: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """F(ts[i], x[i]) batched by grouping equal quantized times.

    The batch is sorted by group once (stably) instead of being scanned
    once per distinct time, and each flow call sees its rows in increasing
    order, as a mask over x would select them.
    """
    # quantize to limit the number of flow evaluations
    scale = float(np.max(np.abs(ts))) or 1.0
    q = np.round(ts / scale, 3) * scale
    times, group = np.unique(q, return_inverse=True)
    order = np.argsort(group, kind="stable")
    grouped = x[order]
    moved = np.empty_like(grouped)
    start = 0
    for t, end in zip(times, np.cumsum(np.bincount(group))):
        moved[start:end] = flow(float(t), grouped[start:end])
        start = end
    out = np.empty_like(x)
    out[order] = moved
    return out


def check_flow_conditions(
    flow: Flow,
    region_low=(-1.0, -1.0),
    region_high=(1.0, 1.0),
    samples: int = 2000,
    seed: int = 0,
    m_grid=DEFAULT_M_GRID,
    identity_tol: float = 1e-9,
    group_tol: float = 1e-9,
) -> FlowConditionsReport:
    rng = np.random.default_rng(seed)
    low = np.asarray(region_low, float)
    high = np.asarray(region_high, float)
    x = rng.uniform(low, high, size=(samples, flow.dim))

    # (a) identity at t = 0
    ident = float(np.max(np.linalg.norm(flow(0.0, x) - x, axis=-1)))

    # (b) modulus of t -> F(t, x), uniform over sampled x
    equi = {}
    for dt in (0.2, 0.1, 0.05, 0.01, 0.001):
        base_ts = np.linspace(flow.a * 0.5, flow.b * 0.5, 9)
        worst = 0.0
        for t in base_ts:
            worst = max(worst, float(np.max(np.linalg.norm(
                flow(t + dt, x) - flow(t, x), axis=-1))))
        equi[dt] = worst

    # (c) two-sided difference-quotient ratios at shrinking separations
    m_table = {}
    for t in m_grid:
        for tt in (t, -t) if t else (0.0,):
            ratios = []
            for delta in (1e-3, 1e-4):
                y = x + delta * rng.normal(size=x.shape)
                den = np.linalg.norm(y - x, axis=-1)
                keep = den > 1e-12
                num = np.linalg.norm(flow(tt, y) - flow(tt, x), axis=-1)
                ratios.append(num[keep] / den[keep])
            ratios = np.concatenate(ratios)
            lo, hi = float(ratios.min()), float(ratios.max())
            m_table[tt] = (lo, hi, max(hi, 1.0 / lo))

    # (d) local group law
    s = rng.uniform(flow.a * 0.5, flow.b * 0.5, 64)
    t = rng.uniform(flow.a * 0.5, flow.b * 0.5, 64)
    group = 0.0
    xs = x[:256]
    for si, ti in zip(s, t):
        lhs = flow(si + ti, xs)
        rhs = flow(si, flow(ti, xs))
        group = max(group, float(np.max(np.linalg.norm(lhs - rhs, axis=-1))))

    # (e) chain-comparability constant over the parameter grid
    c_grid = {}
    c_max = 1.0
    eps_list, mu_list = DEFAULT_C_GRID
    rev = flow.reversed()
    y0 = x[: min(samples, 1000)]
    for eps_p in eps_list:
        for mu_p in mu_list:
            z, mz, _ = _sample_orbit_members(flow, y0, eps_p, mu_p, rng)
            xb, mx, _ = _sample_orbit_members(rev, y0, eps_p, mu_p, rng)
            ok = mz & mx
            d_xy = np.linalg.norm(y0 - xb, axis=-1)
            d_yz = np.linalg.norm(z - y0, axis=-1)
            d_xz = np.linalg.norm(z - xb, axis=-1)
            keep = ok & (d_xz > 1e-12)
            if not keep.any():
                continue
            cell = float(np.max((d_xy[keep] + d_yz[keep]) / d_xz[keep]))
            c_grid[(eps_p, mu_p)] = cell
            c_max = max(c_max, cell)

    m0 = m_table[0.0][2]
    passes = {
        "a": ident <= identity_tol,
        "b": equi[0.001] < equi[0.2] + 1e-12 and equi[0.001] < 0.1,
        "c": abs(m0 - 1.0) <= 1e-3,
        "d": group <= group_tol,
        "e": np.isfinite(c_max) and bool(c_grid),
    }
    return FlowConditionsReport(ident, equi, m_table, group, c_grid,
                                c_max, passes)


# --- proof-step recipes ------------------------------------------------------

def _modulus_radius(flow: Flow, bound: float, rng: np.random.Generator,
                    samples: int = 500, sign: str = "-") -> float:
    """Largest grid eps with sup_x d(x, F(sign*eps, x)) <= bound, sampled."""
    x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
    best = 0.0
    for eps in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
        t = -eps if sign == "-" else eps
        worst = float(np.max(np.linalg.norm(flow(t, x) - x, axis=-1)))
        if worst <= bound:
            best = eps
            break
    if best == 0.0:
        raise RecipeUnsatisfiable(
            f"no sampled radius keeps the trajectory modulus below {bound:g}")
    return best


def _ratio_radius(flow: Flow, lam0: float, rng: np.random.Generator,
                  samples: int = 2000) -> float:
    """Largest grid eps1 such that d(x,y) < eps1 implies
    d(F(t,y), x)/4 <= d(y, F(-t,x)) for sampled |t| <= lam0."""
    for eps1 in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01):
        x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
        y = x + rng.uniform(-1.0, 1.0, size=x.shape) * eps1 / np.sqrt(flow.dim)
        keep = np.linalg.norm(y - x, axis=-1) < eps1
        x, y = x[keep], y[keep]
        ok = True
        for t in rng.uniform(-lam0, lam0, 8):
            lhs = 0.25 * np.linalg.norm(flow(t, y) - x, axis=-1)
            rhs = np.linalg.norm(y - flow(-t, x), axis=-1)
            if np.any(lhs > rhs + 1e-12):
                ok = False
                break
        if ok:
            return eps1
    raise RecipeUnsatisfiable(
        "no sampled radius validates the two-sided ratio inequality")


def _lambda0(report: FlowConditionsReport) -> float:
    candidates = sorted({abs(t) for t in report.m_table}, reverse=True)
    for lam in candidates:
        if lam > 0 and report.m_sup(lam) <= 2.0:
            return lam
    raise RecipeUnsatisfiable(
        f"no table radius keeps M <= 2; table: {report.m_table}")


def lemacon_construct(
    flow: Flow,
    eps: float,
    mu: float,
    report: FlowConditionsReport,
    samples: int = 100_000,
    seed: int = 0,
) -> dict:
    """Aperture-transfer recipe: constructs (eps', mu') such that
    (x, y) in V+(reversed F, eps', mu') implies (y, x) in V+(F, eps, mu),
    then verifies the implication on sampled pairs (a proved statement;
    any violation is an engine bug)."""
    if not 0 < mu < 1:
        raise DomainViolation("mu must lie in (0, 1)")
    if not eps > 0:
        raise DomainViolation("eps must be positive")
    rng = np.random.default_rng(seed)
    mu_p = min(0.5, mu) / 8.0           # 4 mu' < min(1/2, mu)
    lam0 = _lambda0(report)
    eps1 = _ratio_radius(flow, lam0, rng)
    sigma = eps1 / 2.0
    eps_sigma = _modulus_radius(flow, sigma, rng, sign="-")
    eps_p = min(eps, eps_sigma, lam0)

    rev = flow.reversed()
    x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
    y, member, conv_in = _sample_orbit_members(rev, x, eps_p, mu_p, rng)
    x, y = x[member], y[member]
    implied, conv_out = flow_pair_contains(flow, eps, mu, y, x)
    violations = int(np.count_nonzero(~implied))
    return {
        "eps_prime": eps_p,
        "mu_prime": mu_p,
        "lambda0": lam0,
        "eps1": eps1,
        "sigma": sigma,
        "eps_sigma": eps_sigma,
        "checked": int(len(x)),
        "violations": violations,
        "converged": bool(conv_in and conv_out),
    }


def step1_diagonal_check(
    flow: Flow,
    eps_target: float,
    report: FlowConditionsReport,
    samples: int = 100_000,
    seed: int = 0,
    mu: float = 0.5,
) -> dict:
    """Diagonal recipe: constructs (eps, mu) with V+(F, eps, mu) inside the
    metric entourage B(eps_target), then asserts d(x, y) < eps_target on
    sampled members."""
    if not eps_target > 0:
        raise DomainViolation("target radius must be positive")
    rng = np.random.default_rng(seed)
    eps0 = _modulus_radius(flow, (1.0 - mu) * eps_target, rng, sign="+")
    eps = eps0 / 2.0
    x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
    y, member, conv = _sample_orbit_members(flow, x, eps, mu, rng)
    d = np.linalg.norm(y[member] - x[member], axis=-1)
    violations = int(np.count_nonzero(d >= eps_target))
    return {
        "eps": eps,
        "mu": mu,
        "eps0": eps0,
        "checked": int(np.count_nonzero(member)),
        "violations": violations,
        "converged": bool(conv),
    }


def step3_composition_check(
    flow: Flow,
    eps: float,
    mu: float,
    report: FlowConditionsReport,
    samples: int = 100_000,
    seed: int = 0,
    mu_prime_floor: float = 1e-4,
) -> dict:
    """Composition recipe: constructs (eps', mu') with 2 eps' < eps,
    sup M <= 2 on [0, eps'] and 4 mu' C < mu, then asserts sampled chains
    (x,y), (y,z) in V+(F, eps', mu') land in V+(F, eps, mu)."""
    if not 0 < mu < 1:
        raise DomainViolation("mu must lie in (0, 1)")
    c = report.c_constant
    mu_p = mu / (8.0 * c)
    if mu_p < mu_prime_floor:
        raise RecipeUnsatisfiable(
            f"need mu' = mu/(8C) = {mu_p:.3e} below the working floor "
            f"{mu_prime_floor:g}; requested mu {mu} is too small for C = {c:.3g}")
    lam0 = _lambda0(report)
    eps_p = min(eps / 2.5, lam0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
    y, m1, c1 = _sample_orbit_members(flow, x, eps_p, mu_p, rng)
    z, m2, c2 = _sample_orbit_members(flow, y, eps_p, mu_p, rng)
    keep = m1 & m2
    composed, c3 = flow_pair_contains(flow, eps, mu, x[keep], z[keep])
    violations = int(np.count_nonzero(~composed))
    return {
        "eps_prime": eps_p,
        "mu_prime": mu_p,
        "c_constant": c,
        "checked": int(np.count_nonzero(keep)),
        "violations": violations,
        "converged": bool(c1 and c2 and c3),
    }


# --- pushforward and transport -----------------------------------------------

def pushforward_flow(f: MapSpec, flow: Flow, check_points: int = 256,
                     seed: int = 0, inverse_tol: float = 1e-9) -> Flow:
    """Conjugated flow f*F(t, x) = f(F(t, f^-1(x)))."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(check_points, f.dim))
    f.check_inverse(pts, tol=inverse_tol)
    return Flow(
        f"{f.name}_pushforward_{flow.name}", flow.dim,
        lambda t, x: f(flow.fn(t, f.inverse(x))), flow.a, flow.b)


def check_flow_transport(
    f: MapSpec,
    flow: Flow,
    samples: int = 2000,
    seed: int = 0,
    eps_grid=(0.1, 0.05),
) -> tuple[str, object]:
    """Verdict on f * (forward flow filter of F) = forward flow filter of
    f*F, by membership transfer through f-squared with bi-Lipschitz slack.

    A pair in V+(F, eps, mu) maps into V+(f*F, eps, K mu) where
    K = Lip(f) * Lip(f^-1) on the sampled region; checked both ways.
    Source apertures mu are chosen small enough that the slacked image
    aperture stays below 1.
    """
    from .maps import estimate_lipschitz
    rng = np.random.default_rng(seed)
    pushed = pushforward_flow(f, flow, seed=seed)
    _, l_fwd = estimate_lipschitz(f, [-1.5] * f.dim, [1.5] * f.dim, rng)
    inv_spec = MapSpec(f.name + "_inv", f.dim, f.inverse, f.jacobian)
    _, l_inv = estimate_lipschitz(inv_spec, [-1.5] * f.dim, [1.5] * f.dim, rng)
    factor = 1.25 * l_fwd * l_inv  # margin over the sampled estimate

    inconclusive = False
    for eps in eps_grid:
        for mu in (min(0.2, 0.35 / factor), min(0.1, 0.2 / factor)):
            mu_img = factor * mu
            # forward: members of the source filter map into the image one
            x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
            y, member, conv = _sample_orbit_members(flow, x, eps, mu, rng)
            fx, fy = f(x[member]), f(y[member])
            ok, conv2 = flow_pair_contains(pushed, eps, mu_img, fx, fy)
            if not (conv and conv2):
                inconclusive = True
            elif not bool(ok.all()):
                i = int(np.nonzero(~ok)[0][0])
                return "counterexample", (x[member][i], y[member][i])
            # reverse direction through the inverse map
            xi = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
            yi, mi, conv3 = _sample_orbit_members(pushed, xi, eps, mu, rng)
            gx, gy = f.inverse(xi[mi]), f.inverse(yi[mi])
            ok2, conv4 = flow_pair_contains(flow, eps, mu_img, gx, gy)
            if not (conv3 and conv4):
                inconclusive = True
            elif not bool(ok2.all()):
                i = int(np.nonzero(~ok2)[0][0])
                return "counterexample", (xi[mi][i], yi[mi][i])
    return ("inconclusive" if inconclusive else "commute"), None
