"""Entropy projection of weights over a fixed sample support.

Three simplex programs over the weights q of a reweighted empirical measure,
all driven by exponentiated-gradient (KL mirror descent) updates:

* ``vne_constrained``: minimize (q-q0)^T K (q-q0) subject to a von Neumann
  entropy target H(q) >= rho, via a primal-dual loop with multiplier lambda.
* ``vne_penalized``: minimize (q-q0)^T K (q-q0) - lambda * H(q).
* ``rke_penalized``: minimize (q-q0)^T K (q-q0) + lambda * q^T Ktilde q with
  Ktilde the entrywise square of K; fully quadratic, no eigendecompositions
  inside the loop.

q0 is always uniform.  Penalized objectives are convex, so backtracking makes
the objective trace nonincreasing and the limit a global optimum.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .discrepancy import kd_fixed_support
from .entropy import (
    WEIGHT_FLOOR,
    WeightVector,
    inverse_rke_weighted,
    vne_gradient,
    vne_weighted,
)
from .errors import BadArguments, DataError
from .kernels import GramMatrix, hadamard_square

PROJECTION_MODES = ("vne_constrained", "vne_penalized", "rke_penalized")

_MAX_BACKTRACKS = 50
_LAMBDA_CEILING = 1e6
_STAGNATION_WINDOW = 100
_STAGNATION_EPS = 1e-12
_ETA_GROWTH_CAP = 1024.0

_LOG = logging.getLogger("divkit")


@dataclass(frozen=True)
class ProjectionConfig:
    """Solver knobs shared by the three projection modes.

    ``rho`` (entropy target, nats) applies to vne_constrained only; ``lam``
    to the penalized modes.  Both may also be passed directly to the solver
    functions, which take precedence.
    """

    mode: str
    rho: float | None = None
    lam: float | None = None
    eta: float = 0.1
    gamma: float = 1.0
    max_iters: int = 5000
    tol: float = 1e-8
    weight_floor: float = WEIGHT_FLOOR

    def __post_init__(self):
        if self.mode not in PROJECTION_MODES:
            raise DataError(f"unknown projection mode {self.mode!r}")
        if self.eta <= 0 or self.gamma <= 0 or self.tol <= 0:
            raise BadArguments("eta, gamma and tol must be positive")
        if self.max_iters < 1:
            raise BadArguments("max_iters must be >= 1")
        if self.lam is not None and self.lam < 0:
            raise BadArguments("lambda must be >= 0")


@dataclass(frozen=True)
class ProjectionResult:
    """Optimized weights plus per-iteration traces and summary scores.

    ``entropy_trace`` records the von Neumann entropy for the VNE modes and
    the order-2 entropy log(1 / q^T Ktilde q) for rke_penalized (keeping that
    mode free of eigendecompositions).
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

    def to_payload(self) -> dict:
        return {
            "weights": list(self.q_star.weights),
            "objective_trace": list(self.objective_trace),
            "entropy_trace": list(self.entropy_trace),
            "dual_trace": list(self.dual_trace),
            "status": self.status,
            "iterations": self.iterations,
            "mode": self.mode,
            "kd_to_uniform": self.kd_to_uniform,
            "vendi_before": self.vendi_before,
            "vendi_after": self.vendi_after,
            "rke_before": self.rke_before,
            "rke_after": self.rke_after,
        }


def _hold_floor(q: WeightVector, floor: float) -> WeightVector:
    """Hold live components at the weight floor; exact zeros stay dead.

    Multiplicative updates cannot revive a component once it reaches zero,
    so components that merely sag below the floor are pinned there instead
    of being allowed to underflow away.
    """
    w = q.weights
    sagging = (w > 0.0) & (w < floor)
    if not sagging.any():
        return q
    return WeightVector(np.where(sagging, floor, w))


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
    q0: WeightVector,
    objective_trace: list,
    entropy_trace: list,
    dual_trace: list,
    status: str,
    iterations: int,
    mode: str,
) -> ProjectionResult:
    if status != "converged":
        _LOG.warning("%s projection stopped with status %s after %d iterations",
                     mode, status, iterations)
    k2 = hadamard_square(k)
    h0 = vne_weighted(k, q0)
    h_star = vne_weighted(k, q_star)
    return ProjectionResult(
        q_star=q_star,
        objective_trace=tuple(objective_trace),
        entropy_trace=tuple(entropy_trace),
        dual_trace=tuple(dual_trace),
        status=status,
        iterations=iterations,
        mode=mode,
        kd_to_uniform=kd_fixed_support(k, q_star, q0),
        vendi_before=math.exp(h0),
        vendi_after=math.exp(h_star),
        rke_before=1.0 / inverse_rke_weighted(k2, q0),
        rke_after=1.0 / inverse_rke_weighted(k2, q_star),
    )


def _kd_and_grad(k: GramMatrix, q: WeightVector, q0: WeightVector):
    diff = q.weights - q0.weights
    kdiff = k.values @ diff
    return float(diff @ kdiff), 2.0 * kdiff


def project_vne(k: GramMatrix, rho: float, cfg: ProjectionConfig) -> ProjectionResult:
    """KD-projection onto the set {q : H_VNE(q) >= rho} by primal-dual EG.

    The primal step descends the Lagrangian KD(q) + lambda * (rho - H(q))
    with backtracking; the dual multiplier ascends on the constraint
    violation with stepsize gamma.  Because the single-step primal-dual
    iteration can settle into a tight orbit around the saddle point, the
    solver tracks the feasible-within-tol iterate with the smallest KD and
    returns it, declaring convergence once that incumbent stops improving.
    Returns status ``infeasible`` when the multiplier exceeds a fixed ceiling
    while the violation stagnates (or immediately when rho exceeds log n,
    which no weighting can reach).
    """
    if cfg.mode != "vne_constrained":
        raise DataError(f"config mode is {cfg.mode!r}, expected 'vne_constrained'")
    if not math.isfinite(rho):
        raise BadArguments(f"rho must be finite, got {rho}")
    n = k.n
    q0 = WeightVector.uniform(n)
    q = q0
    h = vne_weighted(k, q)
    kd, kd_grad = _kd_and_grad(k, q, q0)
    objective_trace = [kd]
    entropy_trace = [h]
    lam = 0.0
    dual_trace = [lam]

    if h >= rho:
        return _finish(k, q, q0, objective_trace, entropy_trace, dual_trace,
                       "converged", 0, cfg.mode)
    if rho > math.log(n) + 1e-12:
        return _finish(k, q, q0, objective_trace, entropy_trace, dual_trace,
                       "infeasible", 0, cfg.mode)

    violations = [rho - h]
    status = "max_iters"
    iterations = cfg.max_iters
    best_q, best_kd, since_improved = None, np.inf, 0
    eta_run = cfg.eta
    gamma_run = cfg.gamma
    infeasible_streak = 0
    for t in range(cfg.max_iters):
        grad_h = vne_gradient(k, q, weight_floor=cfg.weight_floor)
        g = kd_grad - lam * grad_h
        lagrangian = kd + lam * (rho - h)

        eta = eta_run
        new_q, new_h, new_kd, new_kd_grad = q, h, kd, kd_grad
        moved = False
        first_try = True
        # demand descent beyond eigensolver noise; a primal sitting at its
        # lambda-conditional optimum then simply stays put for this round
        margin = 1e-13 * (1.0 + lam + abs(lagrangian))
        for _ in range(_MAX_BACKTRACKS):
            cand = _hold_floor(eg_step(q, g, eta), cfg.weight_floor)
            cand_kd, cand_kd_grad = _kd_and_grad(k, cand, q0)
            cand_h = vne_weighted(k, cand)
            if cand_kd + lam * (rho - cand_h) <= lagrangian - margin:
                new_q, new_h, new_kd, new_kd_grad = cand, cand_h, cand_kd, cand_kd_grad
                moved = True
                break
            eta /= 2.0
            first_try = False
        if moved:
            # grow the step while the line search accepts immediately
            eta_run = min(eta * 2.0, cfg.eta * _ETA_GROWTH_CAP) if first_try else max(
                eta, cfg.eta * 2.0**-30
            )
        else:
            eta_run = cfg.eta  # nothing descends: wait for the dual to move
        step_norm = float(np.abs(new_q.weights - q.weights).max()) if moved else 0.0
        q, h, kd, kd_grad = new_q, new_h, new_kd, new_kd_grad

        lam = max(0.0, lam + gamma_run * (rho - h))
        violation = max(0.0, rho - h)
        violations.append(violation)
        objective_trace.append(kd)
        entropy_trace.append(h)
        dual_trace.append(lam)

        # speed up the dual tail: grow gamma while the iterate stays strictly
        # infeasible, reset on touching the feasible side
        if violation > cfg.tol:
            infeasible_streak += 1
            if infeasible_streak >= 20:
                gamma_run = min(gamma_run * 2.0, cfg.gamma * 1e6)
                infeasible_streak = 0
        else:
            gamma_run = cfg.gamma
            infeasible_streak = 0

        if violation <= cfg.tol and kd < best_kd - 1e-12 * max(1.0, abs(best_kd)):
            best_q, best_kd, since_improved = q, kd, 0
        else:
            since_improved += 1

        if violation <= cfg.tol and step_norm <= cfg.tol:
            status = "converged"
            iterations = t + 1
            break
        if best_q is not None and since_improved >= _STAGNATION_WINDOW:
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

    if best_q is not None:
        q = best_q
    return _finish(k, q, q0, objective_trace, entropy_trace, dual_trace,
                   status, iterations, cfg.mode)


def _descend_penalized(k, cfg, evaluate, grad, mode):
    """Generic EG descent with backtracking for the two penalized programs.

    ``evaluate(q)`` returns ``(objective, entropy)`` at one point, so every
    evaluated point is solved once and an accepted candidate's entropy is
    reused for the trace.
    """
    n = k.n
    q0 = WeightVector.uniform(n)
    q = q0
    obj, h = evaluate(q)
    objective_trace = [obj]
    entropy_trace = [h]
    status = "max_iters"
    iterations = cfg.max_iters
    eta_run = cfg.eta
    for t in range(cfg.max_iters):
        g = grad(q)
        eta = eta_run
        accepted = None
        first_try = True
        for _ in range(_MAX_BACKTRACKS):
            cand = _hold_floor(eg_step(q, g, eta), cfg.weight_floor)
            cand_obj, cand_h = evaluate(cand)
            if cand_obj < obj:
                accepted = (cand, cand_obj, cand_h)
                break
            eta /= 2.0
            first_try = False
        if accepted is not None:
            eta_run = min(eta * 2.0, cfg.eta * _ETA_GROWTH_CAP) if first_try else max(
                eta, cfg.eta * 2.0**-30
            )
        if accepted is None:
            # no descent at floating precision: stationary
            status = "converged"
            iterations = t
            break
        new_q, new_obj, h = accepted
        step_norm = float(np.abs(new_q.weights - q.weights).max())
        rel_change = (obj - new_obj) / max(abs(obj), 1e-300)
        q, obj = new_q, new_obj
        objective_trace.append(obj)
        entropy_trace.append(h)
        if rel_change <= cfg.tol and step_norm <= cfg.tol:
            status = "converged"
            iterations = t + 1
            break
    return _finish(k, q, q0, objective_trace, entropy_trace, [],
                   status, iterations, mode)


def project_vendi_penalized(k: GramMatrix, lam: float, cfg: ProjectionConfig) -> ProjectionResult:
    """Minimize (q-q0)^T K (q-q0) - lam * H_VNE(q) over the simplex.

    Descent from q0 ensures the objective never increases, hence
    H(q*) >= H(q0) and KD(q*) <= lam * (H(q*) - H(q0)).
    """
    if cfg.mode != "vne_penalized":
        raise DataError(f"config mode is {cfg.mode!r}, expected 'vne_penalized'")
    if lam < 0:
        raise BadArguments(f"lambda must be >= 0, got {lam}")
    q0 = WeightVector.uniform(k.n)

    def evaluate(q: WeightVector) -> tuple:
        diff = q.weights - q0.weights
        h = vne_weighted(k, q)
        return float(diff @ k.values @ diff) - lam * h, h

    def grad(q: WeightVector) -> np.ndarray:
        return 2.0 * (k.values @ (q.weights - q0.weights)) - lam * vne_gradient(
            k, q, weight_floor=cfg.weight_floor
        )

    return _descend_penalized(k, cfg, evaluate, grad, cfg.mode)


def project_rke_penalized(k: GramMatrix, lam: float, cfg: ProjectionConfig) -> ProjectionResult:
    """Minimize (q-q0)^T K (q-q0) + lam * q^T Ktilde q over the simplex.

    Both quadratic forms are PSD (Ktilde by the Schur product theorem), so
    the program is convex and the backtracked EG iterates settle at a global
    optimum within tolerance.
    """
    if cfg.mode != "rke_penalized":
        raise DataError(f"config mode is {cfg.mode!r}, expected 'rke_penalized'")
    if lam < 0:
        raise BadArguments(f"lambda must be >= 0, got {lam}")
    k2 = hadamard_square(k)
    q0 = WeightVector.uniform(k.n)

    def evaluate(q: WeightVector) -> tuple:
        diff = q.weights - q0.weights
        inverse_rke = inverse_rke_weighted(k2, q)
        return float(diff @ k.values @ diff) + lam * inverse_rke, -math.log(inverse_rke)

    def grad(q: WeightVector) -> np.ndarray:
        return 2.0 * (k.values @ (q.weights - q0.weights)) + 2.0 * lam * (k2.values @ q.weights)

    return _descend_penalized(k, cfg, evaluate, grad, cfg.mode)
