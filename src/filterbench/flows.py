"""One-parameter flow machinery: condition checkers (a)-(e), flow pair
filters, reversal, the aperture-transfer lemma recipe, diagonal and
composition recipes, flow pushforward and the transport identity.

Flows act on Euclidean carriers, all on the one time domain
[-T_MAX, T_MAX] = [-1, 1], which reversal maps onto itself; all verdicts
are sampled and seeded.
A flow is evaluated at an array of times in one call, the times broadcast
against the leading axes of the points: per-row times for orbit points,
a column of times against a batch for orbit arcs.
The translation and rotation evaluators and the orbit sampler write each
coordinate along the rows, with the bits of the form that broadcasts over
the coordinate axis, which ``tests/oracles.py`` keeps.
Pair membership goes through geometry.arc_membership: each orbit arc is a
uniform polyline, doubled towards a 2^14 cap, and a row is decided once
its polyline distance d is further from mu * d(x, y) than the chord bound
h^2 C / 8 for parameter step h, or once that bound is at most
1e-9 (1 + d).  C bounds the orbit's sup|c''|.  Each built-in constructor
declares it in closed form, together with a speed bound S on sup|c'|, so
those decisions are certified and start at the chord (2 vertices, then 3,
5, 9, 17, ...); translation and linear_shear orbits (C = 0) are decided at
the chord, and a reversed flow keeps its flow's bounds.  A flow pushed
forward by a map that declares its derivative bounds (maps.MapSpec: every
linear map, parabolic_shear and sine_shear) is certified too, with C built
from the map's bounds and the flow's S and C (pushforward_flow).  Any other
pushed-forward flow has no bound: its arcs start at 17 vertices, and the
kernel estimates C from second differences of the polyline.  Rows still
undecided at the cap are reported through the converged flag, never
silently passed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainViolation,
    RecipeUnsatisfiable,
)
from .geometry import arc_membership
from .maps import MapSpec, estimate_lipschitz


T_MAX = 1.0  # every flow is defined for times in [-T_MAX, T_MAX]


@dataclass(frozen=True)
class Flow:
    """Evaluator F(t, x) on [-T_MAX, T_MAX] x R^dim.

    x has shape (..., dim); t is a time or an array of times broadcast
    against the leading axes of x, so t (N,) with x (N, dim) moves each row
    by its own time and t (B, 1) with x (N, dim) gives (B, N, dim).

    ``curvature(x, eps)`` bounds sup |d^2/dt^2 F(t, x)| and ``speed(x, eps)``
    bounds sup |d/dt F(t, x)| over |t| <= eps for each row of x (N, dim);
    each is None when no bound is known.
    """

    name: str
    dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    curvature: Callable[[np.ndarray, float], np.ndarray] | None = None
    speed: Callable[[np.ndarray, float], np.ndarray] | None = None

    def __call__(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= T_MAX
        if not inside.all():
            raise DomainViolation(
                f"t={t[~inside].flat[0]} outside [{-T_MAX}, {T_MAX}]")
        return self.fn(t, np.asarray(x, dtype=float))

    def reversed(self) -> "Flow":
        return Flow(self.name + "_reversed", self.dim,
                    lambda t, x: self.fn(-t, x), self.curvature, self.speed)


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (..., d): the square root of
    x_0^2 + x_1^2 + ... summed in coordinate order.  For d < 8 numpy sums in
    that order too, so this equals np.linalg.norm(x, axis=-1) bit for bit,
    without its overhead."""
    out = x[..., 0] * x[..., 0]
    for c in range(1, x.shape[-1]):
        out += x[..., c] * x[..., c]
    return np.sqrt(out)


def _empty_points(t: np.ndarray, x: np.ndarray, dim: int) -> np.ndarray:
    """Uninitialised output (..., dim) of a flow at times t on points x:
    t broadcast against the leading axes of x."""
    return np.empty(np.broadcast_shapes(np.shape(t), x.shape[:-1]) + (dim,))


def translation_flow(u) -> Flow:
    u = np.asarray(u, dtype=float)
    def fn(t, x):
        out = _empty_points(t, x, len(u))
        for c in range(len(u)):
            np.add(x[..., c], t * u[c], out=out[..., c])
        return out
    return Flow("translation", len(u), fn,
                curvature=lambda x, eps: np.zeros(len(x)),
                speed=lambda x, eps: np.full(len(x), _norms(u)))


def rotation_flow(omega: float = 1.0) -> Flow:
    def fn(t, x):
        c, s = np.cos(omega * t), np.sin(omega * t)
        x0, x1 = x[..., 0], x[..., 1]
        out = _empty_points(t, x, 2)
        np.subtract(x0 * c, x1 * s, out=out[..., 0])
        np.add(x0 * s, x1 * c, out=out[..., 1])
        return out
    return Flow("rotation", 2, fn,
                curvature=lambda x, eps: omega ** 2 * _norms(x),
                speed=lambda x, eps: abs(omega) * _norms(x))


def scaling_flow(rate: float = 1.0) -> Flow:
    return Flow("scaling", 2, lambda t, x: np.exp(rate * t)[..., None] * x,
                curvature=lambda x, eps: (rate ** 2 * np.exp(abs(rate) * eps)
                                          * _norms(x)),
                speed=lambda x, eps: (abs(rate) * np.exp(abs(rate) * eps)
                                      * _norms(x)))


def _expm(a: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor exponential of each matrix of a stack
    (..., n, n), with the squaring count of the largest one."""
    norm = float(np.max(np.abs(a).sum(axis=(-2, -1)), initial=0.0))
    n = max(0, int(np.ceil(np.log2(max(norm, 1e-16)))) + 4)
    b = a / (2 ** n)
    out = np.eye(a.shape[-1])
    term = np.eye(a.shape[-1])
    for k in range(1, 20):
        term = term @ b / k
        out = out + term
    for _ in range(n):
        out = out @ out
    return out


def linear_flow(generator) -> Flow:
    """exp(t g) x; |c''| = |g^2 exp(t g) x| <= |g^2|_F e^(|g|_F |t|) |x|,
    which is 0 for a nilpotent g with g^2 = 0, and
    |c'| = |g exp(t g) x| <= |g|_F e^(|g|_F |t|) |x|."""
    g = np.asarray(generator, dtype=float)
    # computed per call, not here: a matmul at import would load BLAS
    # buffers into every process that imports the package
    curvature = lambda x, eps: (np.linalg.norm(g @ g)
                                * np.exp(np.linalg.norm(g) * eps) * _norms(x))
    speed = lambda x, eps: (np.linalg.norm(g) * np.exp(np.linalg.norm(g) * eps)
                            * _norms(x))
    return Flow("linear", g.shape[0],
                lambda t, x: (_expm(t[..., None, None] * g)
                              @ x[..., None])[..., 0],
                curvature=curvature, speed=speed)


BUILTIN_FLOWS: dict[str, Flow] = {
    "translation": translation_flow([1.0, 0.0]),
    "rotation": rotation_flow(1.0),
    "scaling": scaling_flow(1.0),
    "linear_shear": linear_flow([[0.0, 1.0], [0.0, 0.0]]),
}


# --- orbit arc membership ---------------------------------------------------

def _orbit_arcs(flow: Flow, x: np.ndarray, eps: float):
    """Arc evaluator of geometry.arc_membership: the orbit arcs of x[rows]
    on |t| <= eps, with the flow's curvature bound when it has one."""
    bound = None if flow.curvature is None else flow.curvature(x, eps)
    def bind(rows):
        xr = x[rows]
        return ((lambda ts: flow(ts[:, None], xr)),
                None if bound is None else bound[rows])
    return bind


def flow_pair_contains(flow: Flow, eps: float, mu: float,
                       x: np.ndarray, y: np.ndarray,
                       sign: str = "+") -> tuple[np.ndarray, bool]:
    """Membership of the pairs (x, y) in V+(F, eps, mu) (or V- for '-').

    The distance from y to the orbit arc of x is refined per row by
    geometry.arc_membership until the chord bound h^2 C / 8 can no longer
    flip the comparison against mu * d(x, y).  C is the flow's declared
    curvature bound, which makes the decision certified and lets
    refinement start at the chord (2 vertices).  Every built-in flow, its
    reversal and its pushforward by a map with declared derivative bounds
    has one.  For a flow without one (a pushforward by a map without those
    bounds), C is estimated from the polyline's second differences, and
    refinement starts at 17 vertices.  Rows still ambiguous at the
    subdivision cap make the converged flag false.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    d_xy = _norms(y - x)
    _, member, converged = arc_membership(_orbit_arcs(flow, x, eps), y,
                                          mu * d_xy, eps, sign)
    return (d_xy > 0) & member, converged


# --- condition checkers ------------------------------------------------------

@dataclass
class FlowConditionsReport:
    identity_residual: float
    m_table: dict  # t -> (inf ratio, sup ratio, M(t))
    group_residual: float
    c_constant: float
    passes: dict
    converged: bool  # every check (e) membership decided

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def m_sup(self, radius: float) -> float:
        vals = [m for t, (_, _, m) in self.m_table.items() if abs(t) <= radius]
        return max(vals) if vals else float("inf")


M_GRID = (0.0, 0.01, 0.05, 0.1, 0.2, 0.4)
C_GRID = ((1e-1, 1e-2, 1e-3, 1e-4), (0.4, 0.2, 0.1, 0.05))
STEP1_MU = 0.5
MU_PRIME_FLOOR = 1e-4


def _sample_orbit_members(flow: Flow, x: np.ndarray, eps: float, mu: float,
                          rng: np.random.Generator):
    """Points y with (x, y) in V+(F, eps, mu), built near the orbit with a
    conservative transverse slack and then verified."""
    ts = rng.uniform(0.2 * eps, eps, len(x))
    on_orbit = flow(ts, x)
    d_base = _norms(on_orbit - x)
    w = rng.normal(size=x.shape)
    norm = np.maximum(_norms(w), 1e-12)
    slack = 0.25 * mu * d_base
    y = np.empty_like(on_orbit)
    for c in range(x.shape[-1]):
        np.add(on_orbit[:, c], slack * (w[:, c] / norm), out=y[:, c])
    member, converged = flow_pair_contains(flow, eps, mu, x, y)
    return y, member, converged


def check_flow_conditions(flow: Flow, samples: int = 2000,
                          seed: int = 0) -> FlowConditionsReport:
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (samples, flow.dim))

    # (a) identity at t = 0
    ident = float(np.max(_norms(flow(0.0, x) - x)))

    # (b) modulus of t -> F(t, x), uniform over sampled x; one call per
    # base time moves x by every dt, so temporaries stay at (5, N, d)
    dts = np.array([0.2, 0.1, 0.05, 0.01, 0.001])
    worst = np.zeros(len(dts))
    for t in np.linspace(-0.5 * T_MAX, 0.5 * T_MAX, 9):
        moved = _norms(flow(t + dts[:, None], x) - flow(t, x))
        worst = np.maximum(worst, moved.max(axis=1))
    worst = worst.tolist()

    # (c) two-sided difference-quotient ratios at shrinking separations
    m_table = {}
    for t in M_GRID:
        for tt in (t, -t) if t else (0.0,):
            ratios = []
            fx = flow(tt, x)
            for delta in (1e-3, 1e-4):
                y = x + delta * rng.normal(size=x.shape)
                den = _norms(y - x)
                keep = den > 1e-12
                num = _norms(flow(tt, y) - fx)
                ratios.append(num[keep] / den[keep])
            ratios = np.concatenate(ratios)
            lo, hi = float(ratios.min()), float(ratios.max())
            m_table[tt] = (lo, hi, max(hi, 1.0 / lo))

    # (d) local group law
    s = rng.uniform(-0.5 * T_MAX, 0.5 * T_MAX, 64)[:, None]
    t = rng.uniform(-0.5 * T_MAX, 0.5 * T_MAX, 64)[:, None]
    xs = x[:256]
    group = float(np.max(_norms(flow(s + t, xs) - flow(s, flow(t, xs)))))

    # (e) chain-comparability constant over the parameter grid
    cells = []
    converged = True
    eps_list, mu_list = C_GRID
    rev = flow.reversed()
    y0 = x[: min(samples, 1000)]
    for eps_p in eps_list:
        for mu_p in mu_list:
            z, mz, cz = _sample_orbit_members(flow, y0, eps_p, mu_p, rng)
            xb, mx, cx = _sample_orbit_members(rev, y0, eps_p, mu_p, rng)
            converged = converged and cz and cx
            ok = mz & mx
            d_xy = _norms(y0 - xb)
            d_yz = _norms(z - y0)
            d_xz = _norms(z - xb)
            keep = ok & (d_xz > 1e-12)
            if not keep.any():
                continue
            cells.append(float(np.max((d_xy[keep] + d_yz[keep]) / d_xz[keep])))

    c_max = max([1.0, *cells])
    m0 = m_table[0.0][2]
    passes = {
        "a": ident <= 1e-9,
        # (b): the move at dt = 0.001 against the one at dt = 0.2
        "b": worst[-1] < worst[0] + 1e-12 and worst[-1] < 0.1,
        "c": abs(m0 - 1.0) <= 1e-3,
        "d": group <= 1e-9,
        "e": np.isfinite(c_max) and bool(cells),
    }
    return FlowConditionsReport(ident, m_table, group, c_max, passes,
                                converged)


# --- proof-step recipes ------------------------------------------------------

def _modulus_radius(flow: Flow, bound: float, rng: np.random.Generator,
                    sign: str = "-") -> float:
    """Largest grid eps with sup_x d(x, F(sign*eps, x)) <= bound, sampled."""
    x = rng.uniform(-1.0, 1.0, size=(500, flow.dim))
    best = 0.0
    for eps in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001):
        t = -eps if sign == "-" else eps
        worst = float(np.max(_norms(flow(t, x) - x)))
        if worst <= bound:
            best = eps
            break
    if best == 0.0:
        raise RecipeUnsatisfiable(
            f"no sampled radius keeps the trajectory modulus below {bound:g}")
    return best


def _ratio_radius(flow: Flow, lam0: float, rng: np.random.Generator) -> float:
    """Largest grid eps1 such that d(x,y) < eps1 implies
    d(F(t,y), x)/4 <= d(y, F(-t,x)) for sampled |t| <= lam0."""
    for eps1 in (0.5, 0.25, 0.1, 0.05, 0.02, 0.01):
        x = rng.uniform(-1.0, 1.0, size=(2000, flow.dim))
        y = x + rng.uniform(-1.0, 1.0, size=x.shape) * eps1 / np.sqrt(flow.dim)
        keep = _norms(y - x) < eps1
        x, y = x[keep], y[keep]
        t = rng.uniform(-lam0, lam0, 8)[:, None]
        lhs = 0.25 * _norms(flow(t, y) - x)
        rhs = _norms(y - flow(-t, x))
        if not np.any(lhs > rhs + 1e-12):
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
) -> dict:
    """Diagonal recipe: constructs eps with V+(F, eps, STEP1_MU) inside the
    metric entourage B(eps_target), then asserts d(x, y) < eps_target on
    sampled members."""
    if not eps_target > 0:
        raise DomainViolation("target radius must be positive")
    rng = np.random.default_rng(seed)
    eps0 = _modulus_radius(flow, (1.0 - STEP1_MU) * eps_target, rng, sign="+")
    eps = eps0 / 2.0
    x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
    y, member, conv = _sample_orbit_members(flow, x, eps, STEP1_MU, rng)
    d = _norms(y[member] - x[member])
    violations = int(np.count_nonzero(d >= eps_target))
    return {
        "eps": eps,
        "mu": STEP1_MU,
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
) -> dict:
    """Composition recipe: constructs (eps', mu') with 2 eps' < eps,
    sup M <= 2 on [0, eps'] and 4 mu' C < mu, then asserts sampled chains
    (x,y), (y,z) in V+(F, eps', mu') land in V+(F, eps, mu)."""
    if not 0 < mu < 1:
        raise DomainViolation("mu must lie in (0, 1)")
    if not eps > 0:
        raise DomainViolation("eps must be positive")
    c = report.c_constant
    mu_p = mu / (8.0 * c)
    if mu_p < MU_PRIME_FLOOR:
        raise RecipeUnsatisfiable(
            f"need mu' = mu/(8C) = {mu_p:.3e} below the working floor "
            f"{MU_PRIME_FLOOR:g}; requested mu {mu} is too small for C = {c:.3g}")
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

def pushforward_flow(f: MapSpec, flow: Flow, seed: int = 0) -> Flow:
    """Conjugated flow f*F(t, x) = f(F(t, f^-1(x))).

    Its orbit through x is c = f(p) along the orbit p of q = f^-1(x), so
    c'' = D^2 f[p', p'] + Df p''.  With |p'| <= S = speed(q, eps), p stays in
    B(q, S eps), and when f declares H and J (maps.MapSpec) and F declares
    S and C, the pushed flow declares
    C(x, eps) = H S^2 + J(q, S eps) C_F(q, eps).  Otherwise it declares no
    curvature bound, and its arcs are decided with an estimated one.
    """
    if f.dim != flow.dim:
        raise DomainViolation(
            f"map {f.name} acts on dimension {f.dim}, flow {flow.name} "
            f"on dimension {flow.dim}")
    rng = np.random.default_rng(seed)
    f.check_inverse(rng.uniform(-1.0, 1.0, size=(256, f.dim)))
    curvature = None
    if all(b is not None for b in (f.hessian_bound, f.jacobian_bound,
                                   flow.speed, flow.curvature)):
        def curvature(x, eps):
            q = f.inverse(x)
            s = flow.speed(q, eps)
            return (f.hessian_bound * s * s
                    + f.jacobian_bound(q, s * eps) * flow.curvature(q, eps))
    return Flow(
        f"{f.name}_pushforward_{flow.name}", flow.dim,
        lambda t, x: f(flow.fn(t, f.inverse(x))), curvature)


def check_flow_transport(
    f: MapSpec,
    flow: Flow,
    samples: int = 2000,
    seed: int = 0,
) -> tuple[str, object]:
    """Verdict on f * (forward flow filter of F) = forward flow filter of
    f*F, by membership transfer through f-squared with bi-Lipschitz slack.

    A pair in V+(F, eps, mu) maps into V+(f*F, eps, K mu) where
    K = Lip(f) * Lip(f^-1), each sampled on the box [-1.5, 1.5]^d;
    checked both ways.
    Source apertures mu are chosen small enough that the slacked image
    aperture stays below 1.
    """
    rng = np.random.default_rng(seed)
    pushed = pushforward_flow(f, flow, seed=seed)
    l_fwd = estimate_lipschitz(f, f.dim, rng)
    l_inv = estimate_lipschitz(f.inverse, f.dim, rng)
    factor = 1.25 * l_fwd * l_inv  # margin over the sampled estimate

    inconclusive = False
    for eps in (0.1, 0.05):
        for mu in (min(0.2, 0.35 / factor), min(0.1, 0.2 / factor)):
            mu_img = factor * mu
            # forward: members of the source filter map into the image one;
            # then the reverse direction through the inverse map
            for source, image, g in ((flow, pushed, f), (pushed, flow, f.inverse)):
                x = rng.uniform(-1.0, 1.0, size=(samples, flow.dim))
                y, member, conv = _sample_orbit_members(source, x, eps, mu, rng)
                ok, conv2 = flow_pair_contains(image, eps, mu_img,
                                               g(x[member]), g(y[member]))
                if not (conv and conv2):
                    inconclusive = True
                elif not bool(ok.all()):
                    i = int(np.nonzero(~ok)[0][0])
                    return "counterexample", (x[member][i], y[member][i])
    return ("inconclusive" if inconclusive else "commute"), None
