"""Global reconstruction from finitely many measurements.

One pipeline serves exact and noisy data: compose the forward map with a
finite-rank measurement operator Q, cover the compact search box with a
lattice fine enough that some lattice point is provably close to the truth in
measured-data distance, certify that point as the initial guess, then run
local LM from it.  Only the constants and the stopping rule differ.

The lattice scan walks the points in index order and stops at the first one
that passes the measured-data test, so the chosen initial guess is a fixed
function of the lattice and the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    IterationTrace,
    SolverConfig,
    compute_constants_exact,
    compute_constants_noisy,
    iterations_for_accuracy,
    run_exact,
    run_noisy,
)
from .errors import DimensionMismatch, LatticeTooLarge, NoCandidateFound
from .operators import (
    ForwardModel,
    StabilityCertificate,
    apply_forward,
    as_vector,
    forward_stack,
    jacobian_stack,
    recenter,
)

DEFAULT_LATTICE_CAP = 10**7


@dataclass(frozen=True, eq=False)
class MeasurementOperator:
    """Finite-rank measurement map, realized as a dense matrix onto its range.

    Its norm enters the reconstruction only through the certificate's
    ``q_norm``; the operator itself stores the matrix alone.
    """

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           np.atleast_2d(np.asarray(self.matrix, dtype=float)))

    @property
    def dim_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, y) -> np.ndarray:
        return self.matrix @ as_vector(y, self.dim_in, "y")

    @classmethod
    def identity(cls, m: int) -> "MeasurementOperator":
        return cls(np.eye(m))

    @classmethod
    def averaging(cls, m: int) -> "MeasurementOperator":
        return cls(np.full((1, m), 1.0 / m))

    @classmethod
    def row_selector(cls, m: int, rows) -> "MeasurementOperator":
        mat = np.zeros((len(rows), m))
        for i, r in enumerate(rows):
            mat[i, r] = 1.0
        return cls(mat)


@dataclass(frozen=True, eq=False)
class CompactBox:
    """Axis-aligned box of candidate parameters."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        up = np.asarray(self.upper, dtype=float)
        if lo.shape != up.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be 1-D arrays of equal length")
        if np.any(lo > up):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x) -> bool:
        x = as_vector(x, self.dim, "x")
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))


@dataclass(frozen=True, eq=False)
class Lattice:
    """Finite covering lattice: every box point is within covering_radius of a node."""

    points: np.ndarray
    covering_radius: float

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class ReconSummary:
    """Bookkeeping from one reconstruction run, for reports and trace headers."""

    lattice_size: int
    covering_radius: float
    scan_threshold: float
    scanned: int
    chosen_index: int
    x0: np.ndarray
    rho: float
    budget: int

    def as_dict(self) -> dict:
        return {
            "lattice_size": self.lattice_size,
            "covering_radius": self.covering_radius,
            "scan_threshold": self.scan_threshold,
            "scanned": self.scanned,
            "chosen_index": self.chosen_index,
            "x0": list(map(float, self.x0)),
            "rho": self.rho,
            "budget": self.budget,
        }


def compose_measured_model(model: ForwardModel,
                           q_op: MeasurementOperator) -> ForwardModel:
    """Forward model for Q o F, with Jacobian Q J and adjoint J^T Q^T."""
    if q_op.dim_in != model.dim_y:
        raise DimensionMismatch(
            f"measurement expects dimension {q_op.dim_in}, model produces {model.dim_y}"
        )
    mat = q_op.matrix
    mat_t = mat.T.copy()

    def forward_batch(xs):
        return (mat @ forward_stack(model, xs)[:, :, None])[:, :, 0]

    def jacobian_batch(xs):
        # Q times each Jacobian column, as jacobian_matrix forms it; the
        # columns are copied contiguous because a strided product rounds
        # differently
        cols = np.swapaxes(jacobian_stack(model, xs), 1, 2).copy()[:, :, :, None]
        return np.swapaxes((mat @ cols)[:, :, :, 0], 1, 2)

    return ForwardModel(
        dim_x=model.dim_x,
        dim_y=q_op.dim_out,
        center=model.center,
        radius_sq=model.radius_sq,
        forward=lambda x: mat @ model.forward(x),
        jacobian_apply=lambda x, v: mat @ model.jacobian_apply(x, v),
        jacobian_adjoint_apply=lambda x, w: model.jacobian_adjoint_apply(x, mat_t @ w),
        forward_batch=forward_batch,
        jacobian_batch=jacobian_batch,
    )


def lattice_radius(cert: StabilityCertificate, rho: float) -> float:
    """Covering radius for the initial-guess lattice.

    The first term is the radius under which some lattice point is guaranteed
    to pass the measured-data test; the second keeps any accepted point inside
    the entry ball of the local convergence theory, which is stated for the
    squared norm (the two radii cross at rho = 2).
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    hit_radius = rho / (2.0 * cert.forward_lip * cert.recon_const * cert.q_norm)
    return min(hit_radius, math.sqrt(2.0 * rho))


def build_lattice(box: CompactBox, r_cover: float) -> Lattice:
    """Uniform cell-centered grid whose half-cell diagonal is <= r_cover.

    Per-axis spacing is at most ``2 r_cover / sqrt(n)`` so the half-diagonal of
    each cell, the lattice's ``covering_radius``, does not exceed ``r_cover``;
    the spacing itself is not kept.  Degenerate axes (zero extent) contribute
    a single coordinate.  Raises
    :class:`LatticeTooLarge` when the grid would exceed
    ``DEFAULT_LATTICE_CAP`` points; the count is taken before any allocation.
    """
    if not r_cover > 0:
        raise ValueError("r_cover must be positive")
    n = box.dim
    h_max = 2.0 * r_cover / math.sqrt(n)
    counts = []
    for lo, up in zip(box.lower, box.upper):
        extent = up - lo
        counts.append(1 if extent == 0.0 else int(math.ceil(extent / h_max)))
    total = math.prod(counts)
    if total > DEFAULT_LATTICE_CAP:
        raise LatticeTooLarge(
            f"lattice would need {total} points (cap {DEFAULT_LATTICE_CAP}); "
            "shrink the box or relax the target accuracy"
        )
    spacing = (box.upper - box.lower) / np.array(counts)
    axes = [lo + (np.arange(cnt) + 0.5) * h
            for lo, cnt, h in zip(box.lower, counts, spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return Lattice(points=points,
                   covering_radius=0.5 * float(np.linalg.norm(spacing)))


def scan_for_initial_guess(lattice: Lattice, measured_model: ForwardModel,
                           y_obs, threshold: float, details: bool = False):
    """First lattice point (in index order) within ``threshold`` of the data.

    Candidates are compared in measured-data space: the point ``x_j`` is
    accepted iff ``||Q(F(x_j)) - y_obs|| < threshold``.  A point whose data
    are not finite fails the test and is skipped.  With ``details`` the
    result is ``(x0, index, points scanned)``.
    """
    y_obs = as_vector(y_obs, measured_model.dim_y, "y_obs")
    for hit, point in enumerate(lattice.points):
        fx = apply_forward(measured_model, point, check=False)
        if float(np.linalg.norm(fx - y_obs)) < threshold:
            break
    else:
        raise NoCandidateFound(
            f"no lattice point within threshold {threshold:.6g} of the data; "
            "the truth may lie outside the box, the constants may be wrong, "
            "or the noise exceeds the threshold margin"
        )
    x0 = point.copy()
    if details:
        return x0, hit, hit + 1
    return x0


def _reconstruct(model: ForwardModel, q_op: MeasurementOperator,
                 box: CompactBox, cert: StabilityCertificate, rho: float,
                 budget: int, y_obs, run_local) -> IterationTrace:
    """The global algorithm behind both reconstructions.

    Composes Q o F, covers the box with a lattice of radius
    ``lattice_radius(cert, rho)``, takes the first point within
    ``rho / (2 C~)`` of ``y_obs``, re-centers the admissible ball there and
    returns the trace of ``run_local(local_model, x0)`` with its
    :class:`ReconSummary` attached.
    """
    measured = compose_measured_model(model, q_op)
    lattice = build_lattice(box, lattice_radius(cert, rho))
    threshold = rho / (2.0 * cert.recon_const)
    x0, hit, scanned = scan_for_initial_guess(
        lattice, measured, y_obs, threshold, details=True
    )
    trace = run_local(recenter(measured, x0, cert.domain_rho_prime), x0)
    trace.recon = ReconSummary(
        lattice_size=lattice.size, covering_radius=lattice.covering_radius,
        scan_threshold=threshold, scanned=scanned, chosen_index=hit,
        x0=x0, rho=rho, budget=budget,
    )
    return trace


def reconstruct_exact(model: ForwardModel, q_op: MeasurementOperator,
                      box: CompactBox, cert: StabilityCertificate, q: float,
                      target_gamma: float, y_obs, x_dagger=None,
                      tol_alpha: float = 1e-10,
                      ) -> tuple[np.ndarray, IterationTrace]:
    """Full exact-data reconstruction: lattice scan, then LM to a target accuracy.

    The certificate must describe the composed operator Q o F.  The admissible
    ball is re-centered at the scanned initial guess before the local
    iteration starts.
    """
    tc = compute_constants_exact(cert, q)
    budget = iterations_for_accuracy(target_gamma, tc, cert.holder_eps)
    cfg = SolverConfig(q=q, max_iters=budget, tol_alpha=tol_alpha,
                       stop_mode="fixed_budget")
    trace = _reconstruct(
        model, q_op, box, cert, tc.rho, budget, y_obs,
        lambda local, x0: run_exact(local, x_dagger, y_obs, x0, cfg, tc),
    )
    return trace.x_final, trace


def reconstruct_noisy(model: ForwardModel, q_op: MeasurementOperator,
                      box: CompactBox, cert: StabilityCertificate, q: float,
                      tau: float, delta: float, y_delta, max_iters: int,
                      x_dagger=None, tol_alpha: float = 1e-10,
                      ) -> tuple[np.ndarray, IterationTrace]:
    """Noisy-data reconstruction with discrepancy stopping.

    The lattice scan reuses the exact-data threshold against the noisy data
    (the noise is assumed to fit inside the threshold margin; this assumption
    is recorded on the trace when it is violated).  The run may exhaust
    ``max_iters`` before the discrepancy criterion; the budget-limited iterate
    is then returned with terminal status ``budget_exhausted``.
    """
    tc = compute_constants_noisy(cert, q, tau, delta=delta)
    cfg = SolverConfig(q=q, max_iters=max_iters, tau=tau, delta=delta,
                       tol_alpha=tol_alpha, stop_mode="discrepancy")
    trace = _reconstruct(
        model, q_op, box, cert, tc.rho, max_iters, y_delta,
        lambda local, x0: run_noisy(local, x_dagger, y_delta, x0, cfg, tc),
    )
    threshold = trace.recon.scan_threshold
    if delta >= threshold:
        trace.warnings.append(
            f"noise level {delta:.6g} is not small against the scan threshold "
            f"{threshold:.6g}; the hit guarantee does not apply"
        )
    return trace.x_final, trace
