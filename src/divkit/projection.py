"""Entropy projection of weights over a fixed sample support.

Three simplex programs over the weights q of a reweighted empirical measure:

* ``vne_constrained``: minimize (q-q0)^T K (q-q0) subject to a von Neumann
  entropy target H(q) >= rho, via a primal-dual loop with multiplier lambda.
* ``vne_penalized``: minimize (q-q0)^T K (q-q0) - lambda * H(q).
* ``rke_penalized``: minimize (q-q0)^T K (q-q0) + lambda * q^T Ktilde q with
  Ktilde the entrywise square of K; a convex quadratic program, solved exactly
  by an active-set method on an inverse Cholesky factor, in numpy alone.

q0 is always uniform.  vne_constrained takes exponentiated-gradient (KL
mirror descent) steps with a backtracking line search.  vne_penalized takes
safeguarded Newton steps: affine-scaled directions from conjugate gradients on
Hessian-vector products (Daleckii-Krein, two GEMMs each, no eigensolve), an
Armijo backtrack, and a stop on the Frank-Wolfe gap, or status ``stalled``
where the steps fail or stop closing the gap.  Penalized objectives are
convex, so their traces never increase, and both report the Frank-Wolfe gap
at q*.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .discrepancy import kd_fixed_support
from .entropy import (
    SPECTRAL_FLOOR,
    WEIGHT_FLOOR,
    WeightVector,
    _spectrum,
    _vne_hessian,
    vne_gradient,
    vne_weighted,
    weighted_gram,
)
from .errors import BadArguments, DataError
from .kernels import GramMatrix

_MAX_BACKTRACKS = 50
_TO_BOUNDARY = 0.995
_ARMIJO = 1e-4
_NEWTON_BACKTRACKS = 6
_CG_RTOL = 1e-10
_NEWTON_WINDOW = 20
_LAMBDA_CEILING = 1e6
_STAGNATION_WINDOW = 100
_STAGNATION_EPS = 1e-12
_ETA_GROWTH_CAP = 1024.0
_ETA0 = 0.1  # vne_constrained's first EG step
_GAMMA0 = 1.0  # vne_constrained's first dual step
_EPS = float(np.finfo(np.float64).eps)
_ROW_BLOCK = 64  # rows per block of rke_penalized's n-wide temporaries

_LOG = logging.getLogger("divkit")


@dataclass(frozen=True)
class ProjectionConfig:
    """Solver knobs shared by the three projection modes.

    Each solver takes its entropy target or lambda as an argument.
    ``max_iters`` bounds the iterations: primal-dual rounds for
    vne_constrained, Newton steps for vne_penalized, support changes for
    rke_penalized.  ``tol`` is each mode's stopping tolerance.
    """

    max_iters: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise BadArguments("tol must be finite and positive")
        if self.max_iters < 1:
            raise BadArguments("max_iters must be >= 1")


@dataclass(frozen=True)
class ProjectionResult:
    """Optimized weights plus per-iteration traces and summary scores.

    ``status`` is ``converged`` (for the penalized modes: gap <= tol),
    ``max_iters``, ``stalled`` (vne_penalized: its Newton steps failed or
    stopped closing the gap) or ``infeasible`` (vne_constrained).
    ``entropy_trace`` records the von Neumann entropy for the VNE modes and
    the order-2 entropy log(1 / q^T Ktilde q) for rke_penalized (keeping that
    mode free of eigendecompositions).  ``gap`` (not in the payload) is the
    penalized modes' Frank-Wolfe gap g.q* - min_i g_i, g the gradient of the
    objective they trace; None for vne_constrained.
    The summaries at q0 and q* are the solver's own: the VNE modes read H and
    q^T Ktilde q = sum(lam^2) off their eigenvalues, rke_penalized its gradient's
    q^T Ktilde q, and solves H once at each.
    """

    q_star: WeightVector
    objective_trace: tuple
    entropy_trace: tuple
    dual_trace: tuple
    status: str
    iterations: int
    mode: str
    kd_to_uniform: float
    vendi_before: float
    vendi_after: float
    rke_before: float
    rke_after: float
    gap: float | None = None

    def to_payload(self) -> dict:
        """Every field but ``gap``, with ``q_star`` as its ``weights`` and traces as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name not in ("q_star", "gap")}
        return {"weights": list(self.q_star.weights),
                **{k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}}


def _hold_floor(q: WeightVector) -> WeightVector:
    """Hold live components at the weight floor; exact zeros stay dead.

    Multiplicative updates cannot revive a component once it reaches zero,
    so components that merely sag below the floor are pinned there instead
    of being allowed to underflow away.
    """
    w = q.weights
    sagging = (w > 0.0) & (w < WEIGHT_FLOOR)
    if not sagging.any():
        return q
    return WeightVector(np.where(sagging, WEIGHT_FLOOR, w))


def eg_step(q: WeightVector, g: np.ndarray, eta: float) -> WeightVector:
    """Multiplicative update q_i <- q_i * exp(-eta * g_i), renormalized.

    The gradient is shifted by its q-weighted mean first (the update is
    invariant to constant shifts) and the exponent is max-subtracted, so the
    step never overflows.  Zero components stay exactly zero.
    """
    if eta <= 0:
        raise BadArguments(f"eta must be > 0, got {eta}")
    g = np.asarray(g, dtype=np.float64)
    if g.shape != (q.n,):
        raise DataError(f"gradient shape {g.shape} does not match {q.n} weights")
    z = -eta * (g - float(q.weights @ g))
    z -= z.max()
    w = q.weights * np.exp(z)
    return WeightVector(w)


def _finish(
    k: GramMatrix,
    q_star: WeightVector,
    before: tuple,
    after: tuple,
    objective_trace: list,
    entropy_trace: list,
    dual_trace: list,
    status: str,
    iterations: int,
    mode: str,
    gap: float | None = None,
) -> ProjectionResult:
    """``before`` and ``after`` are the solver's own (H, q^T Ktilde q) at q0 and q_star."""
    (h0, inv_rke0), (h_star, inv_rke_star) = before, after
    result = ProjectionResult(
        q_star=q_star,
        objective_trace=tuple(objective_trace),
        entropy_trace=tuple(entropy_trace),
        dual_trace=tuple(dual_trace),
        status=status,
        iterations=iterations,
        mode=mode,
        kd_to_uniform=kd_fixed_support(k, q_star, WeightVector.uniform(k.n)),
        vendi_before=math.exp(h0),
        vendi_after=math.exp(h_star),
        rke_before=1.0 / inv_rke0,
        rke_after=1.0 / inv_rke_star,
        gap=gap,
    )
    if status != "converged":
        _LOG.warning("%s", _stop_message(result))
    return result


def _stop_message(result: ProjectionResult) -> str:
    """Why a solve that did not converge stopped, and how far from a
    certificate: its Frank-Wolfe gap, where it has one."""
    text = (f"{result.mode} projection stopped with status {result.status} "
            f"after {result.iterations} iterations")
    return text if result.gap is None else f"{text}, Frank-Wolfe gap {result.gap:.3e}"


def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam >= 0):
        raise BadArguments(f"lambda must be finite and >= 0, got {lam}")


def _kd_and_grad(k: GramMatrix, q: WeightVector, q0: WeightVector):
    diff = q.weights - q0.weights
    kdiff = k.values @ diff
    return float(diff @ kdiff), 2.0 * kdiff


@dataclass(frozen=True)
class _Point:
    """A VNE iterate: KD to q0 and its gradient, H(q), and the eigenpairs of A(q).
    ``summary`` is H(q) and q^T Ktilde q = ||A(q)||_F^2, the sum of the squared eigenvalues."""

    q: WeightVector
    kd: float
    kd_grad: np.ndarray
    h: float
    eig: tuple

    @property
    def summary(self) -> tuple:
        return self.h, float(self.eig[0] @ self.eig[0])


def _screen_slack(at: _Point) -> float | None:
    """Rounding cushion of the tangent screen at ``at``; None where it must not run.

    H is concave (A(q) shares its nonzero spectrum with Phi^T diag(q) Phi,
    linear in q), so H(c) <= H(q) + grad H(q).(c - q).  The computed H and
    gradient are exact up to rounding only with no eigenvalue of A(q) at the
    SPECTRAL_FLOOR clamp and no weight at WEIGHT_FLOOR.  An eigenvalue
    comes out within a few eps and H moves by |log lam + 1| per unit of it:
    a computed entropy or slope is off by about n eps (1 + |log lam_min|), and
    the cushion allows four.  Dropping sub-floor eigenvalues only lowers H(c).
    """
    lam_min = float(at.eig[0][0])
    if lam_min <= SPECTRAL_FLOOR or at.q.weights.min() <= WEIGHT_FLOOR:
        return None
    return 4.0 * at.q.n * _EPS * (1.0 - math.log(lam_min))


def _vne_line_search(k, q0, at, lam, rho, eta, margin):
    """Backtracking EG from ``at`` on kd(q) + lam * (rho - H(q)): the first of
    eta, eta/2, ... whose value is below ``at``'s by more than ``margin``.

    A candidate whose tangent bound (``_screen_slack``) fails the test is
    rejected without an eigensolve; rounding is monotone, so the bound never
    exceeds the solved value.  Others are solved once with ``eigh``, and the
    accepted point's eigenpairs give the next gradient.  Returns that point
    (or None) and the next eta.
    """
    grad_h = vne_gradient(k, at.q, eig=at.eig)
    g = at.kd_grad - lam * grad_h
    bar = at.kd + lam * (rho - at.h) - margin
    slack = _screen_slack(at)
    for tries in range(_MAX_BACKTRACKS):
        cand = _hold_floor(eg_step(at.q, g, eta))
        kd, kd_grad = _kd_and_grad(k, cand, q0)
        tangent = None if slack is None else at.h + float(grad_h @ (cand.weights - at.q.weights))
        if tangent is None or kd + lam * (rho - (tangent + slack)) < bar:
            h, eig = _spectrum(weighted_gram(k, cand), vectors=True)
            if kd + lam * (rho - h) < bar:
                # grow the step while the line search accepts immediately
                grown = (min(eta * 2.0, _ETA0 * _ETA_GROWTH_CAP) if tries == 0
                         else max(eta, _ETA0 * 2.0**-30))
                return _Point(cand, kd, kd_grad, h, eig), grown
        eta /= 2.0
    return None, _ETA0


def _tangent_cg(apply, rhs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Conjugate gradients for apply(s) = rhs on the subspace {q.s = 0}.

    Stops once the projected residual falls to _CG_RTOL of its start, after n
    steps, or at the first step that does not lower the model
    s.apply(s) / 2 - rhs.s, keeping the steps before it: on a nearly singular
    operator (rows of K that repeat) the rounding left in the residual can
    otherwise send the iterates off without bound.  Each search direction is
    projected again, since a long step along a direction of tiny curvature
    would carry the rounding of the last projection off the subspace.
    """
    def project(v):
        return v - q * (float(q @ v) / float(q @ q))

    b = project(rhs)
    r, p, s, bs = b, b, np.zeros_like(b), np.zeros_like(b)
    rr, model = float(b @ b), 0.0
    stop = _CG_RTOL * _CG_RTOL * rr
    for _ in range(q.size):
        bp = apply(p)
        curvature = float(p @ bp)
        if not curvature > 0.0:
            break
        alpha = rr / curvature
        s_next, bs_next = s + alpha * p, bs + alpha * bp
        model_next = float(s_next @ (0.5 * bs_next - b))
        if not model_next < model:
            break
        s, bs, model = s_next, bs_next, model_next
        r = r - alpha * project(bp)
        rr, rr_old = float(r @ r), rr
        if rr <= stop:
            break
        p = project(r + (rr / rr_old) * p)
    return s


def _newton_step(k, q0, at, lam, g):
    """Safeguarded Newton step from ``at`` on kd(q) - lam * H(q), whose gradient
    is ``g``; None where it fails.

    The direction is affine-scaled, d = q o s: s minimizes the model
    (q o g).s + s.B s / 2, B = Q (2K - lam * Hessian of H) Q with Q = diag(q),
    over {q.s = 0}, by conjugate gradients.  Each product with B is one
    product with K and the two GEMMs of ``_vne_hessian``; no eigensolve.  The
    step starts at min(1, _TO_BOUNDARY times the largest step that stays on
    the simplex) and halves at most _NEWTON_BACKTRACKS times until the
    Armijo test with slope fraction _ARMIJO passes; each candidate is solved
    once with ``eigh``.  None for a direction that does not descend or a step
    that no candidate accepts.
    """
    q = at.q.weights
    hess_h = _vne_hessian(q, at.eig)
    s = _tangent_cg(lambda v: q * (2.0 * (k.values @ (q * v)) - lam * hess_h(q * v)), -q * g, q)
    del hess_h  # its n x n weights are not needed by the candidate solves
    d = q * s
    slope = float(g @ d)
    if not (slope < 0.0 and s.min() < 0.0):
        return None
    step = min(1.0, _TO_BOUNDARY / -float(s.min()))
    bar = at.kd - lam * at.h
    for _ in range(_NEWTON_BACKTRACKS + 1):
        cand = _hold_floor(WeightVector(q + step * d))
        kd, kd_grad = _kd_and_grad(k, cand, q0)
        h, eig = _spectrum(weighted_gram(k, cand), vectors=True)
        if kd - lam * h <= bar + _ARMIJO * step * slope:
            return _Point(cand, kd, kd_grad, h, eig)
        step /= 2.0
    return None


def project_vne(k: GramMatrix, rho: float, cfg: ProjectionConfig) -> ProjectionResult:
    """KD-projection onto the set {q : H_VNE(q) >= rho} by primal-dual EG.

    The primal step descends the Lagrangian KD(q) + lambda * (rho - H(q)) by
    backtracking EG, first tried at step ``_ETA0``; the multiplier ascends on
    the constraint violation with a step that starts at ``_GAMMA0`` and grows
    while the iterate stays infeasible.  The solver returns its last iterate,
    with status ``converged`` once that iterate is feasible within tol and
    moves by at most tol in one step; the single-step primal-dual iteration
    can instead settle into a tight orbit around the saddle point and run to
    ``max_iters``.  Returns status ``infeasible`` when the multiplier exceeds
    a fixed ceiling while the violation stagnates (or immediately when rho
    exceeds log n, which no weighting can reach).
    """
    if not math.isfinite(rho):
        raise BadArguments(f"rho must be finite, got {rho}")
    n = k.n
    q0 = WeightVector.uniform(n)
    at = _Point(q0, *_kd_and_grad(k, q0, q0), *_spectrum(weighted_gram(k, q0), vectors=True))
    before = at.summary
    objective_trace = [at.kd]
    entropy_trace = [at.h]
    lam = 0.0
    dual_trace = [lam]

    if at.h >= rho or rho > math.log(n) + 1e-12:
        return _finish(k, q0, before, before, objective_trace, entropy_trace, dual_trace,
                       "converged" if at.h >= rho else "infeasible", 0, "vne_constrained")

    violations = [rho - at.h]
    status = "max_iters"
    iterations = cfg.max_iters
    eta_run = _ETA0
    gamma_run = _GAMMA0
    infeasible_streak = 0
    for t in range(cfg.max_iters):
        # demand descent beyond eigensolver noise; a primal sitting at its
        # lambda-conditional optimum then simply stays put for this round
        margin = 1e-13 * (1.0 + lam + abs(at.kd + lam * (rho - at.h)))
        # when nothing descends, eta_run resets: wait for the dual to move
        new, eta_run = _vne_line_search(k, q0, at, lam, rho, eta_run, margin)
        step_norm = 0.0 if new is None else float(np.abs(new.q.weights - at.q.weights).max())
        at = at if new is None else new

        lam = max(0.0, lam + gamma_run * (rho - at.h))
        violation = max(0.0, rho - at.h)
        violations.append(violation)
        objective_trace.append(at.kd)
        entropy_trace.append(at.h)
        dual_trace.append(lam)

        # speed up the dual tail: grow gamma while the iterate stays strictly
        # infeasible, reset on touching the feasible side
        if violation > cfg.tol:
            infeasible_streak += 1
            if infeasible_streak >= 20:
                gamma_run = min(gamma_run * 2.0, _GAMMA0 * 1e6)
                infeasible_streak = 0
        else:
            gamma_run = _GAMMA0
            infeasible_streak = 0

        if violation <= cfg.tol and step_norm <= cfg.tol:
            status = "converged"
            iterations = t + 1
            break
        if (
            lam > _LAMBDA_CEILING
            and len(violations) > _STAGNATION_WINDOW
            and violations[-_STAGNATION_WINDOW - 1] - violation < _STAGNATION_EPS
        ):
            status = "infeasible"
            iterations = t + 1
            break

    return _finish(k, at.q, before, at.summary, objective_trace, entropy_trace, dual_trace,
                   status, iterations, "vne_constrained")


def project_vendi_penalized(k: GramMatrix, lam: float, cfg: ProjectionConfig) -> ProjectionResult:
    """Minimize (q-q0)^T K (q-q0) - lam * H_VNE(q) over the simplex by Newton steps.

    Each iteration takes g = kd_grad - lam * ``vne_gradient``, the gradient
    of the traced objective, and stops with status ``converged`` once the
    Frank-Wolfe gap g.q - min g <= tol; otherwise ``_newton_step`` moves.
    A step that fails, or a gap that has not halved over the last
    _NEWTON_WINDOW steps (affine-scaled steps creep where a weight near the
    boundary should grow), ends the solve with status ``stalled`` and the gap
    it reached.  Every accepted step descends from q0, hence H(q*) >= H(q0)
    and KD(q*) <= lam * (H(q*) - H(q0)).
    """
    _check_lambda(lam)
    q0 = WeightVector.uniform(k.n)
    at = _Point(q0, *_kd_and_grad(k, q0, q0), *_spectrum(weighted_gram(k, q0), vectors=True))
    before = at.summary
    objective_trace = [at.kd - lam * at.h]
    entropy_trace = [at.h]

    def gradient(at):
        g = at.kd_grad - lam * vne_gradient(k, at.q, eig=at.eig)
        return g, float(g @ at.q.weights - g.min())

    status, iterations = "max_iters", cfg.max_iters
    gaps = []
    for t in range(cfg.max_iters):
        g, gap = gradient(at)
        if gap <= cfg.tol:
            status, iterations = "converged", t
            break
        gaps.append(gap)
        creeping = len(gaps) > _NEWTON_WINDOW and gap > 0.5 * gaps[-_NEWTON_WINDOW - 1]
        new = None if creeping else _newton_step(k, q0, at, lam, g)
        if new is None:
            status, iterations = "stalled", t
            break
        at = new
        objective_trace.append(at.kd - lam * at.h)
        entropy_trace.append(at.h)
    return _finish(k, at.q, before, at.summary, objective_trace, entropy_trace, [], status,
                   iterations, "vne_penalized", gradient(at)[1])


def _duplicate_rows(a: np.ndarray):
    """The first index of each group of exactly equal rows of ``a`` and each
    row's group, as np.unique(a, axis=0, return_index=True,
    return_inverse=True): groups in lexicographic order of their rows, -0.0
    equal to 0.0.  A stable lexsort on the columns orders the rows, and
    neighbours in that order are compared _ROW_BLOCK rows at a time, so no
    temporary is larger than a block of rows."""
    n = len(a)
    order = np.lexsort(a.T[::-1])
    first = np.ones(n, dtype=bool)
    for lo in range(1, n, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n)
        first[lo:hi] = (a[order[lo:hi]] != a[order[lo - 1:hi - 1]]).any(axis=1)
    group = np.empty(n, dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return order[first], group


def _pivoted_cholesky(row, diag: np.ndarray, tiny: float):
    """Greedy diagonal-pivoted Cholesky of the PSD a with rows ``row(i)`` and
    diagonal ``diag``, as LAPACK's dpstrf: step j swaps the largest remaining
    diagonal a_pp - sum_k c_kp^2 into place j and stops once it is <= ``tiny``.
    Returns c, n x n, whose leading rank x rank block is the upper triangular
    factor with c^T c = a[perm, perm] there, the rank and the permutation
    perm.  The columns are permuted and the lower triangle zeroed in place,
    _ROW_BLOCK rows at a time."""
    n = diag.size
    c, sq, perm = np.zeros((n, n)), np.zeros(n), np.arange(n)
    rank = n
    for j in range(n):
        resid = diag - sq
        p = j + int(np.argmax(resid[perm[j:]]))
        if resid[perm[p]] <= tiny:
            rank = j
            break
        perm[[j, p]] = perm[[p, j]]
        i = perm[j]
        c[j] = (row(i) - c[:j, i] @ c[:j]) / math.sqrt(resid[i])
        sq += c[j] * c[j]
    for lo in range(0, rank, _ROW_BLOCK):
        c[lo:lo + _ROW_BLOCK, :rank] = np.triu(c[lo:lo + _ROW_BLOCK, perm[:rank]], lo)
    return c, rank, perm


def _border(w: np.ndarray, size: int, g_bj: np.ndarray, g_jj: float, tiny: float) -> bool:
    """Border the inverse factor in the leading ``size`` x ``size`` block of w
    (w w^T = G^-1) by column g_bj and diagonal g_jj of G, in place, to the
    leading (size + 1) x (size + 1) block; False, with w as it was, when the
    Schur complement is <= ``tiny``."""
    f = w[:size, :size]
    col = f.T @ g_bj
    s = g_jj - col @ col
    if s <= tiny:
        return False
    r = 1.0 / math.sqrt(s)
    w[:size, size] = -r * (f @ col)
    w[size, :size] = 0.0
    w[size, size] = r
    return True


def _drop(w: np.ndarray, size: int, pos: int) -> None:
    """Fold row and column ``pos`` out of the inverse factor in the leading
    ``size`` x ``size`` block of w (w w^T = G^-1), in place, leaving that of G
    without them in the leading (size - 1) x (size - 1) block.

    Givens rotations of the column pairs (i, i+1), i >= pos, fold row pos into
    the last column; without that row and column, the rest W' is upper
    triangular and W' W'^T is the Schur complement of G^-1 at (pos, pos), G'^-1.
    With r = w[pos] and a_i = hypot(a_i-1, r_i) (a_pos = r_pos), rotation i
    takes column i, x_i = sum_k<=i r_k w_k / a_i, to (r_i+1 x_i - a_i w_i+1) / a_i+1.
    Each block of _ROW_BLOCK rows takes its new columns in turn; then the rows
    below pos move up by one."""
    r = w[pos, pos:size].copy()
    a = np.hypot.accumulate(r)
    for lo in range(0, size, _ROW_BLOCK):
        rows = w[lo:min(lo + _ROW_BLOCK, size)]
        x = np.cumsum(rows[:, pos:size] * r, axis=1) / a
        rows[:, pos:size - 1] = (r[1:] * x[:, :-1] - a[:-1] * rows[:, pos + 1:size]) / a[1:]
    for lo in range(pos, size - 1, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, size - 1)
        w[lo:hi, :size - 1] = w[lo + 1:hi + 1, :size - 1]


def project_rke_penalized(k: GramMatrix, lam: float, cfg: ProjectionConfig) -> ProjectionResult:
    """Minimize f(q) = (q-q0)^T K (q-q0) + lam * q^T Ktilde q over the simplex.

    f = q^T H q - 2 (K q0)^T q + const, H = K + lam * Ktilde PSD: a convex QP,
    solved exactly by a primal active-set method.  Each step is the Newton
    step from the gradient g to the minimizer over the support's face; one
    that would leave the simplex stops at the first weight to reach 0 and
    drops it, and at a face minimizer the index with the most negative
    g_j - g.q joins.  The stop is the Frank-Wolfe gap g.q - min g <= tol.
    The face's KKT system takes two products with W, the inverse Cholesky
    factor of G = H + 1 1^T on the basis (G_BB^-1 = W W^T; on the face 1 1^T
    only shifts the multiplier); an add borders W and a drop folds its row
    away by Givens rotations, O(n^2) each.  Exact duplicate rows of K share
    one index and split its weight.  Indices that the first, pivoted,
    factorization finds dependent (f is flat along them) keep their weight
    until a full step zeroes it, and are retried after each drop.

    A solve holds four n x n float64 buffers: the caller's K, its copy kk in
    grouped order, Ktilde = kk * kk and W, which takes the pivoted factor's
    buffer and is bordered and folded in place.  G's entries are formed
    where they are read (pivot rows, bordered columns, the diagonal and the
    dependents' block of the right-hand side); other temporaries are blocks
    of _ROW_BLOCK rows.  The high point is ``np.linalg.inv`` of the factor:
    K, kk, the factor and its inverse, and LAPACK's two untraced copies.
    The QP's buffers are freed before the two ``vne_weighted`` summaries.
    """
    _check_lambda(lam)
    rep, group = _duplicate_rows(k.values)
    size = np.bincount(group)
    kk = k.values[np.ix_(rep, rep)]
    w = w0 = size / k.n
    m = w.size

    def g_at(index):
        # entries of G = kk + lam * kk2 + 1.0, formed where they are read
        x = kk[index]
        return x + lam * (x * x) + 1.0

    diag = g_at(np.diag_indices(m))
    tiny = m * _EPS * diag.max()
    winv, rank, perm = _pivoted_cholesky(g_at, diag, tiny)
    winv[:rank, :rank] = np.linalg.inv(winv[:rank, :rank])
    basis, pending = list(perm[:rank]), list(perm[rank:])
    rows = np.array(basis)  # the basis as an index array, renewed as it changes
    kk2 = kk * kk

    def border(j) -> bool:
        nonlocal rows
        if bordered := _border(winv, len(basis), g_at((rows, j)), diag[j], tiny):
            basis.append(j)
            rows = np.array(basis)
        return bordered

    def gradient(w):
        k2w = kk2 @ w
        return 2.0 * (kk @ (w - w0) + lam * k2w), float(w @ k2w)

    g, inv_rke = gradient(w)
    inv_rke0 = inv_rke
    objective_trace = [lam * inv_rke]
    entropy_trace = [-math.log(inv_rke)]
    status, iterations = "max_iters", cfg.max_iters
    at_face_min = False
    for t in range(cfg.max_iters):
        if g @ w - g.min() <= cfg.tol:
            status, iterations = "converged", t
            break
        if at_face_min:
            outside = np.where(np.isin(np.arange(m), basis), np.inf, g)
            j = int(np.argmin(outside))
            if outside[j] < g @ w and not border(j):
                pending.append(j)
        # the step d with the dependents going to 0 solves
        # G_BB d_B + mu 1 = -g_B / 2 + G_BD w_D with 1^T d_B = sum(w_D)
        rhs = g[basis] / 2.0
        for lo in range(0, len(basis) if pending else 0, _ROW_BLOCK):
            rhs[lo:lo + _ROW_BLOCK] -= g_at(np.ix_(basis[lo:lo + _ROW_BLOCK], pending)) @ w[pending]
        b = len(basis)
        sol = winv[:b, :b] @ (winv[:b, :b].T @ np.column_stack([rhs, np.ones(b)]))
        mu = -(sol[:, 0].sum() + w[pending].sum()) / sol[:, 1].sum()
        d = np.zeros(m)
        d[basis] = -sol[:, 0] - mu * sol[:, 1]
        d[pending] = -w[pending]
        ratio = np.full(m, np.inf)
        ratio[d < 0] = w[d < 0] / -d[d < 0]
        out = int(np.argmin(ratio))
        at_face_min = ratio[out] >= 1.0
        new_w = np.maximum(w + min(ratio[out], 1.0) * d, 0.0)
        if at_face_min:
            pending = []
        elif out in pending:
            new_w[out] = 0.0
            pending.remove(out)
        else:
            new_w[out] = 0.0
            _drop(winv, len(basis), basis.index(out))
            basis.remove(out)
            rows = np.array(basis)
            pending = [j for j in pending if not border(j)]
        new_w /= new_w.sum()
        step, w = new_w - w, new_w
        new_g, inv_rke = gradient(w)
        # f changes along a step by exactly step.(g + new_g) / 2; every step
        # descends, so min(0, .) only drops rounding of order eps |step| |g|
        objective_trace.append(objective_trace[-1] + min(0.0, float(step @ (g + new_g)) / 2.0))
        entropy_trace.append(-math.log(inv_rke))
        g = new_g
    del kk, kk2, winv  # the summaries' eigensolves run without the QP's buffers
    q_star = WeightVector(w[group] / size[group])
    return _finish(k, q_star, (vne_weighted(k, WeightVector.uniform(k.n)), inv_rke0),
                   (vne_weighted(k, q_star), inv_rke), objective_trace, entropy_trace, [], status,
                   iterations, "rke_penalized", float(g @ w - g.min()))
