"""Global reconstruction from finitely many measurements.

One pipeline serves exact and noisy data: compose the forward map with a
finite-rank measurement operator Q, cover the compact search box with a
lattice fine enough that some lattice point is provably close to the truth in
measured-data distance, certify that point as the initial guess, then run
local LM from it.  Only the constants and the stopping rule differ.

A lattice is kept as its per-axis coordinates.  The scan forms
``STACK_BLOCK`` of its points at a time, evaluates them in one array pass, in
index order, and takes the first point that passes the measured-data test, so
the chosen initial guess is a fixed function of the lattice and the data.
Each block is screened by one pass of squared norms: a point is skipped only
when its screened square exceeds ``threshold**2 (1 + 4 (dim_y + 2)
2**-53)``, which bounds the screen's rounding against the exact norm, or is
NaN, as its exact norm is then, and only the other points take the exact
norm that the test compares, so the first hit is the one that exact norms on
every point would give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
from .errors import ConditionViolated, DimensionMismatch, LatticeTooLarge, NoCandidateFound
from .operators import (
    STACK_BLOCK,
    ForwardModel,
    StabilityCertificate,
    as_vector,
    forward_stack,
    jacobian_stack,
    recenter,
    row_norms,
    vector_norm,
)

DEFAULT_LATTICE_CAP = 10**7
# Most steps a run takes, since every step keeps its iterate on the trace:
# the cap on reconstruct_exact's budget, which comes from the target accuracy
# alone, and on a config's max_iters.
BUDGET_CAP = 10**5


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

    @property
    def is_identity(self) -> bool:
        """Whether the matrix is the identity, entry for entry: Q o F is then
        F itself, and a certificate for F holds for it."""
        return np.array_equal(self.matrix, np.eye(self.dim_in))

    def __call__(self, y) -> np.ndarray:
        return self.matrix @ as_vector(y, self.dim_in, "y")

    @classmethod
    def identity(cls, m: int) -> "MeasurementOperator":
        return cls(np.eye(m))


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
        # An infinite bound is a valid box whose lattice has infinitely many
        # points (build_lattice says so); a NaN bound is no box at all.
        for name, bound in (("lower", lo), ("upper", up)):
            if np.isnan(bound).any():
                raise ValueError(f"box {name} bound {bound.tolist()} holds NaN")
        if np.any(lo > up):
            raise ValueError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True, eq=False)
class Lattice:
    """Finite covering lattice: every box point is within covering_radius of a node.

    The lattice is the Cartesian product of its per-axis coordinate arrays,
    numbered in C order (the last axis varies fastest); its points are formed
    only for the index ranges asked for.
    """

    axes: tuple[np.ndarray, ...]
    covering_radius: float

    @property
    def size(self) -> int:
        return math.prod(len(axis) for axis in self.axes)

    def block(self, start: int, stop: int) -> np.ndarray:
        """Points ``start`` up to (not including) ``stop``, as a (k, n) array;
        a range that runs past the last point ends there.

        The flat indices are unravelled from the last axis on, one
        ``np.divmod`` per axis but the first: the remainder picks the axis's
        coordinate and the quotient carries on to the axes before it.
        """
        index = np.arange(start, min(stop, self.size))
        out = np.empty((index.shape[0], len(self.axes)))
        for col in range(len(self.axes) - 1, 0, -1):
            index, here = np.divmod(index, len(self.axes[col]))
            out[:, col] = self.axes[col][here]
        out[:, 0] = self.axes[0][index]
        return out

    @property
    def points(self) -> np.ndarray:
        """Every point, as a (size, n) array."""
        return self.block(0, self.size)


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
        return {**asdict(self), "x0": list(map(float, self.x0))}


def compose_measured_model(model: ForwardModel,
                           q_op: MeasurementOperator) -> ForwardModel:
    """Forward model for Q o F, with Jacobian Q J and adjoint J^T Q^T.

    The identity measurement returns ``model`` itself: ``I v`` has the bits of
    ``v`` wherever ``v`` is finite (up to the sign of a zero), so composing
    with it would only add a product to every evaluation.
    """
    if q_op.dim_in != model.dim_y:
        raise DimensionMismatch(
            f"measurement expects dimension {q_op.dim_in}, model produces {model.dim_y}"
        )
    if q_op.is_identity:
        return model
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
    squared norm (the two radii cross at rho = 2).  Raises
    :class:`ConditionViolated` when the product of the certificate's
    constants overflows, which would leave no hit radius.
    """
    if not rho >= 0:
        raise ValueError("rho must be non-negative")
    # a product that underflows to 0 puts no limit on the hit radius
    den = 2.0 * cert.forward_lip * cert.recon_const * cert.q_norm
    if den == math.inf:
        raise ConditionViolated(
            f"2*forward_lip*recon_const*q_norm overflows (forward_lip = "
            f"{cert.forward_lip:.6g}, recon_const = {cert.recon_const:.6g}, "
            f"q_norm = {cert.q_norm:.6g}): no lattice radius")
    hit_radius = rho / den if den > 0.0 else math.inf
    return min(hit_radius, math.sqrt(2.0 * rho))


def build_lattice(box: CompactBox, r_cover: float) -> Lattice:
    """Uniform cell-centered grid whose half-cell diagonal is <= r_cover.

    Per-axis spacing is at most ``2 r_cover / sqrt(n)`` so the half-diagonal of
    each cell, the lattice's ``covering_radius``, does not exceed ``r_cover``;
    the spacing itself is not kept.  Degenerate axes (zero extent) contribute
    a single coordinate.  Only the per-axis coordinates are stored, so the
    memory grows with the sum of the axis lengths, not with their product.
    Raises :class:`LatticeTooLarge` when the grid would exceed
    ``DEFAULT_LATTICE_CAP`` points, or when an axis needs infinitely many
    (an infinite box, an extent that overflows, or ``r_cover = 0``); the
    count is taken before any allocation.
    """
    if not r_cover >= 0:
        raise ValueError("r_cover must be non-negative")
    n = box.dim
    h_max = 2.0 * float(r_cover) / math.sqrt(n)
    counts = []
    # Python floats: an overflowing extent or count becomes inf, not a warning
    for lo, up in zip(box.lower.tolist(), box.upper.tolist()):
        extent = up - lo
        if extent == 0.0:
            counts.append(1)
            continue
        if h_max == 0.0:
            raise LatticeTooLarge(
                f"lattice would need infinitely many points: its covering "
                f"radius {r_cover:.3g} underflows; relax the target accuracy"
            )
        if not math.isfinite(extent / h_max):
            raise LatticeTooLarge(
                f"lattice would need infinitely many points along [{lo}, {up}]; "
                "shrink the box"
            )
        counts.append(math.ceil(extent / h_max))
    total = math.prod(counts)
    if total > DEFAULT_LATTICE_CAP:
        raise LatticeTooLarge(
            f"lattice would need {total} points (cap {DEFAULT_LATTICE_CAP}); "
            "shrink the box or relax the target accuracy"
        )
    spacing = (box.upper - box.lower) / np.array(counts)
    axes = tuple(lo + (np.arange(cnt) + 0.5) * h
                 for lo, cnt, h in zip(box.lower, counts, spacing))
    return Lattice(axes=axes, covering_radius=0.5 * vector_norm(spacing))


def _screen_bound(threshold: float, dim_y: int) -> float:
    """The squared norm ``threshold**2 (1 + 4 (dim_y + 2) 2**-53)`` that a
    row's screened square must pass to prove ``row_norms(row) >= threshold``
    for a positive ``threshold``, or inf where the screen is off.

    The screened square and the square under :func:`row_norms` sum the same
    ``dim_y`` squares in some order, so each lies within ``dim_y`` roundings
    of ``2**-53`` (relative) of the true sum, plus half a subnormal step for
    each square that underflows, which against a normal ``threshold**2`` is
    less than one more rounding per square.  The exact norm's square root,
    its rescue from under- or overflow and the rounding of the bound itself
    add a few more; ``4 (dim_y + 2)`` covers them all.  A screened sum that
    overflows lies above any finite bound before it rounds to inf.  The
    screen is off where ``threshold**2`` is not a normal float (there its
    rounding is not relative, or it is inf) or the bound overflows.
    """
    square = threshold * threshold
    if square < 2.0**-1022:
        return math.inf
    return square * (1.0 + 4.0 * (dim_y + 2) * 2.0**-53)


def scan_for_initial_guess(lattice: Lattice, measured_model: ForwardModel,
                           y_obs, threshold: float, details: bool = False):
    """First lattice point (in index order) within ``threshold`` of the data.

    Candidates are compared in measured-data space: the point ``x_j`` is
    accepted iff ``||Q(F(x_j)) - y_obs|| < threshold``, the norm taken by
    :func:`row_norms`.  The points are formed by :meth:`Lattice.block` and
    evaluated ``STACK_BLOCK`` at a time in one array pass, and the scan stops
    at the first block with a hit, so it may evaluate up to
    ``STACK_BLOCK - 1`` points past the chosen one; the chosen point is still
    the first in index order, since each stacked row has the bits of the
    per-point evaluation.

    Each block is screened by one pass of squared norms, ``(d * d) @ ones``.
    A row is skipped only when its screened square exceeds
    ``threshold**2 (1 + 4 (dim_y + 2) 2**-53)``, a slack that covers the
    rounding of the screen against :func:`row_norms` (see
    :func:`_screen_bound`), or is NaN, which it is exactly when the row
    holds a NaN and so has a NaN norm; no skipped row could have passed.
    The other rows take :func:`row_norms`' exact norm, which has the same
    bits row by row as on the whole block, and the first of them below
    ``threshold`` is the hit.  The screen is off, and every row without a
    NaN takes the exact norm, when ``threshold**2`` is not a finite normal
    float.  A finite row reaches the exact norm only when it passes or lies
    within the slack of the threshold, so on a scan whose threshold is
    normal that cost is paid for few rows.  A point whose data are not
    finite fails the test and is skipped.  A
    threshold that is not positive (or NaN) admits no point and raises
    :class:`NoCandidateFound` before any point is formed.  With ``details``
    the result is ``(x0, index, points scanned)``, where the count is the
    points the result needed (``index + 1``), not the points evaluated.
    """
    y_obs = as_vector(y_obs, measured_model.dim_y, "y_obs")
    # no norm is below 0, nor below NaN: such a threshold scans no point
    size = lattice.size if threshold > 0 else 0
    # a Python float: a square that overflows is inf, not a warning
    bound = _screen_bound(float(threshold), measured_model.dim_y)
    ones = np.ones(measured_model.dim_y)
    # y_obs in every row of a block: subtracting arrays of one shape is a
    # single pass, where a broadcast y_obs costs a pass per row
    y_rows = np.tile(y_obs, (min(size, STACK_BLOCK), 1))
    squares = np.empty_like(y_rows)
    for start in range(0, size, STACK_BLOCK):
        block = lattice.block(start, start + STACK_BLOCK)
        diff = forward_stack(measured_model, block) - y_rows[:block.shape[0]]
        with np.errstate(over="ignore"):
            screened = np.square(diff, out=squares[:diff.shape[0]]) @ ones
        # a row holding NaN has a NaN square and norm and cannot pass
        near = np.flatnonzero(screened <= bound)
        if near.shape[0]:
            passed = near[row_norms(diff[near]) < threshold]
            if passed.shape[0]:
                hit = start + int(passed[0])
                break
    else:
        raise NoCandidateFound(
            f"no lattice point within threshold {threshold:.6g} of the data; "
            "the truth may lie outside the box, the constants may be wrong, "
            "or the noise exceeds the threshold margin"
        )
    x0 = block[hit - start].copy()
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
    iteration starts.  Raises :class:`ConditionViolated`, before the scan,
    when the budget that reaches ``target_gamma`` exceeds ``BUDGET_CAP``.
    """
    tc = compute_constants_exact(cert, q)
    budget = iterations_for_accuracy(target_gamma, tc, cert.holder_eps)
    if budget > BUDGET_CAP:
        raise ConditionViolated(
            f"the rate bound reaches target_gamma = {target_gamma:.6g} only "
            f"after {budget} iterations (cap {BUDGET_CAP})")
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
