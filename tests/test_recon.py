import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_stacks_match_per_point, linear_model
from lmrecon.engine import compute_constants_exact
from lmrecon.errors import DimensionMismatch, LatticeTooLarge, NoCandidateFound
from lmrecon.gallery import get_problem
from lmrecon.operators import (
    ForwardModel,
    apply_forward,
    finite_difference_jacobian,
    jacobian_matrix,
)
from lmrecon.recon import (
    CompactBox,
    MeasurementOperator,
    build_lattice,
    compose_measured_model,
    lattice_radius,
    reconstruct_exact,
    reconstruct_noisy,
    scan_for_initial_guess,
)


class TestMeasurementOperator:
    def test_norm_matches_svd(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((2, 4))
        q = MeasurementOperator(mat)
        assert abs(q.operator_norm
                   - np.linalg.svd(mat, compute_uv=False)[0]) <= 1e-10

    def test_presets(self):
        assert MeasurementOperator.identity(3).operator_norm == 1.0
        avg = MeasurementOperator.averaging(4)
        assert avg(np.array([1.0, 2.0, 3.0, 4.0]))[0] == 2.5
        sel = MeasurementOperator.row_selector(3, [0])
        assert np.array_equal(sel(np.array([5.0, 6.0, 7.0])), [5.0])


class TestComposition:
    def test_identity_composition_is_identity(self):
        prob = get_problem("exp-decay")
        q = MeasurementOperator.identity(prob.model.dim_y)
        comp = compose_measured_model(prob.model, q)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = prob.model.center + 0.2 * rng.standard_normal(2)
            assert np.array_equal(apply_forward(comp, x, check=False),
                                  apply_forward(prob.model, x, check=False))

    def test_row_selector_projection(self):
        model = linear_model(np.array([[2.0], [5.0]]))
        q = MeasurementOperator.row_selector(2, [0])
        comp = compose_measured_model(model, q)
        assert comp.dim_y == 1
        assert apply_forward(comp, [3.0], check=False)[0] == 6.0

    def test_averaging_jacobian_matches_finite_differences(self):
        prob = get_problem("exp-decay")
        q = MeasurementOperator.averaging(prob.model.dim_y)
        comp = compose_measured_model(prob.model, q)
        x = np.array([1.1, 0.9])
        jac = jacobian_matrix(comp, x)
        fd = finite_difference_jacobian(comp, x, 1e-5, check=False)
        assert np.linalg.norm(fd - jac) <= 1e-6 * (1.0 + np.linalg.norm(jac))

    def test_composition_preserves_adjoint(self):
        prob = get_problem("exp-decay")
        q = MeasurementOperator.averaging(prob.model.dim_y)
        comp = compose_measured_model(prob.model, q)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = prob.model.center + 0.2 * rng.standard_normal(2)
            v = rng.standard_normal(comp.dim_x)
            w = rng.standard_normal(comp.dim_y)
            jv = comp.jacobian_apply(x, v)
            jtw = comp.jacobian_adjoint_apply(x, w)
            assert abs(np.dot(jv, w) - np.dot(v, jtw)) <= \
                1e-10 * (1.0 + np.linalg.norm(jv) * np.linalg.norm(w))

    def test_dimension_mismatch(self):
        model = linear_model(np.array([[2.0], [5.0]]))
        with pytest.raises(DimensionMismatch):
            compose_measured_model(model, MeasurementOperator.identity(3))

    @pytest.mark.parametrize("pid", ["exp-decay", "quadratic-3d"])
    def test_batches_match_per_point(self, pid, gallery_problems):
        model = gallery_problems[pid].model
        plain = dataclasses.replace(model, forward_batch=None, jacobian_batch=None)
        rng = np.random.default_rng(5)
        xs = model.center + rng.uniform(-0.5, 0.5, (300, model.dim_x))
        for rows in (1, 2, 4):
            q = MeasurementOperator(rng.standard_normal((rows, model.dim_y)))
            for inner in (model, plain):
                assert_stacks_match_per_point(compose_measured_model(inner, q), xs)


class TestLatticeRadius:
    def cert(self, forward_lip=1.0, recon_const=1.0, q_norm=1.0):
        from lmrecon.operators import StabilityCertificate
        return StabilityCertificate(
            lip_deriv=1.0, jac_bound=1.0, holder_const=1.0, holder_eps=1.0,
            domain_rho_prime=10.0, forward_lip=forward_lip,
            recon_const=recon_const, q_norm=q_norm,
        )

    def test_hit_guarantee_term(self):
        assert abs(lattice_radius(self.cert(), 0.03125) - 0.015625) <= 1e-15

    def test_q_norm_scaling(self):
        r1 = lattice_radius(self.cert(q_norm=1.0), 0.03125)
        r2 = lattice_radius(self.cert(q_norm=2.0), 0.03125)
        assert abs(r1 - 2.0 * r2) <= 1e-15

    def test_crossover_with_entry_radius(self):
        assert lattice_radius(self.cert(), 8.0) == 4.0


class TestBuildLattice:
    def test_1d_two_points(self):
        lat = build_lattice(CompactBox(np.array([0.0]), np.array([1.0])), 0.25)
        assert np.allclose(lat.points.ravel(), [0.25, 0.75])
        assert abs(lat.covering_radius - 0.25) <= 1e-15

    def test_2d_nine_points(self):
        lat = build_lattice(
            CompactBox(np.array([0.0, 0.0]), np.array([1.0, 1.0])), 0.25
        )
        assert lat.size == 9
        assert lat.covering_radius <= 0.25

    def test_degenerate_box_single_point(self):
        lat = build_lattice(
            CompactBox(np.array([0.3, 0.3]), np.array([0.3, 0.3])), 0.1
        )
        assert lat.size == 1
        assert np.allclose(lat.points[0], [0.3, 0.3])

    def test_cap(self):
        box = CompactBox(np.zeros(2), np.ones(2))
        with pytest.raises(LatticeTooLarge):
            build_lattice(box, 1e-6)

    def test_covering_property_sampled(self):
        box = CompactBox(np.array([-0.5, 0.25]), np.array([1.5, 0.75]))
        lat = build_lattice(box, 0.2)
        rng = np.random.default_rng(6)
        samples = box.lower + rng.random((10**4, 2)) * (box.upper - box.lower)
        for s in samples:
            d = np.min(np.linalg.norm(lat.points - s, axis=1))
            assert d <= lat.covering_radius * (1.0 + 1e-12)


class TestScan:
    def test_truth_on_lattice_is_returned(self):
        prob = get_problem("scalar-linear")
        # lattice {0.25, 0.75} on [0,1]: plant the truth at a node
        lat = build_lattice(prob.default_box, 0.25)
        truth = lat.points[0]
        y = apply_forward(prob.model, truth, check=False)
        x0 = scan_for_initial_guess(lat, prob.model, y, 1e-12)
        assert np.array_equal(x0, truth)

    def test_scalar_scan_within_rho(self):
        # rho as in the unit-constant example; the oracle-estimated constants
        # carry the 5% inflation that turns the worst-case proximity chain
        # into a strict inequality.
        from lmrecon.gallery import estimate_stability_constants

        prob = get_problem("scalar-linear")
        rho = 0.03125
        cert = estimate_stability_constants(prob.model, prob.default_box,
                                            eps=1.0, samples=10000, seed=5)
        r_cover = lattice_radius(cert, rho)
        lat = build_lattice(prob.default_box, r_cover)
        y = apply_forward(prob.model, prob.x_dagger, check=False)
        x0 = scan_for_initial_guess(lat, prob.model, y,
                                    rho / (2.0 * cert.recon_const))
        assert abs(x0[0] - 0.5) < rho

    def test_zero_threshold_fails(self):
        prob = get_problem("scalar-linear")
        lat = build_lattice(prob.default_box, 0.25)
        y = apply_forward(prob.model, prob.x_dagger, check=False)
        with pytest.raises(NoCandidateFound):
            scan_for_initial_guess(lat, prob.model, y, 0.0)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_first_hit_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3), label="dim_x")
        m = data.draw(st.integers(1, 3), label="dim_y")

        def floats(count, lo, hi, label):
            return np.array(data.draw(
                st.lists(st.floats(lo, hi), min_size=count, max_size=count),
                label=label,
            ))

        lower = floats(n, -2.0, 2.0, "lower")
        box = CompactBox(lower, lower + floats(n, 0.0, 2.0, "extent"))
        lat = build_lattice(box, data.draw(st.floats(0.15, 1.0), label="r_cover"))
        a = floats(m * n, -2.0, 2.0, "A").reshape(m, n)
        eta = data.draw(st.floats(0.0, 0.5), label="eta")
        y = floats(m, -2.0, 2.0, "y")
        model = ForwardModel(
            dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=np.inf,
            forward=lambda x: a @ x + eta * (a @ x) ** 2,
            jacobian_apply=lambda x, v: a @ v + 2.0 * eta * (a @ x) * (a @ v),
            jacobian_adjoint_apply=lambda x, w: a.T @ (w + 2.0 * eta * (a @ x) * w),
        )

        # Brute force over every point at once.  The threshold sits midway in
        # a gap between sorted distances, so the last-bit differences between
        # batched and per-point evaluation cannot move a point across it.
        fx = lat.points @ a.T
        dist = np.linalg.norm(fx + eta * fx**2 - y, axis=1)
        levels = np.unique(dist)
        gaps = np.flatnonzero(np.diff(levels) > 1e-9 * (1.0 + levels[1:]))
        choice = data.draw(st.integers(-1, len(gaps)), label="threshold rank")
        if choice == -1:
            threshold = 0.5 * levels[0] if levels[0] > 1e-9 else 0.0
        elif choice == len(gaps):
            threshold = levels[-1] + 1.0
        else:
            g = gaps[choice]
            threshold = 0.5 * (levels[g] + levels[g + 1])
        hits = np.flatnonzero(dist < threshold)

        if hits.size == 0:
            with pytest.raises(NoCandidateFound):
                scan_for_initial_guess(lat, model, y, threshold)
            return
        x0, hit, scanned = scan_for_initial_guess(lat, model, y, threshold,
                                                  details=True)
        assert hit == hits[0]
        assert scanned == hit + 1
        assert np.array_equal(x0, lat.points[hit])


class TestScanGuarantees:
    """Hit guarantee and proximity bound of the lattice scan, with oracle
    constants and a free radius parameter (both hold for any rho > 0)."""

    @pytest.mark.parametrize("pid", ["exp-decay", "quadratic-2d"])
    def test_scan_never_misses_planted_truth(self, pid, gallery_problems):
        prob = gallery_problems[pid]
        cert = prob.certificate
        rho = 0.1
        q_op = MeasurementOperator.identity(prob.model.dim_y)
        comp = compose_measured_model(prob.model, q_op)
        lat = build_lattice(prob.default_box, lattice_radius(cert, rho))
        threshold = rho / (2.0 * cert.recon_const)
        rng = np.random.default_rng(8)
        box = prob.default_box
        for _ in range(20):
            truth = box.lower + rng.random(box.dim) * (box.upper - box.lower)
            y = apply_forward(comp, truth, check=False)
            x0 = scan_for_initial_guess(lat, comp, y, threshold)
            # proximity bound: a hit is within rho of the truth
            assert np.linalg.norm(x0 - truth) < rho

    def test_box_excluding_truth_reports_no_candidate(self, gallery_problems):
        prob = gallery_problems["exp-decay"]
        cert = prob.certificate
        rho = 0.1
        bad_box = CompactBox(np.array([0.5, 1.0]), np.array([1.0, 1.5]))
        lat = build_lattice(bad_box, lattice_radius(cert, rho))
        y = apply_forward(prob.model, prob.x_dagger, check=False)
        with pytest.raises(NoCandidateFound):
            scan_for_initial_guess(lat, prob.model, y,
                                   rho / (2.0 * cert.recon_const))


class TestReconstructExact:
    def test_scalar_linear_exact_recovery(self, gallery_problems):
        prob = gallery_problems["scalar-linear"]
        q_op = MeasurementOperator.identity(1)
        y = q_op(prob.y_exact)
        x_hat, trace = reconstruct_exact(
            prob.model, q_op, prob.default_box, prob.certificate, 0.5,
            1e-14, y, x_dagger=prob.x_dagger,
        )
        assert abs(x_hat[0] - 0.5) <= 1e-12
        tc = compute_constants_exact(prob.certificate, 0.5)
        assert trace.recon.budget >= 0
        assert trace.recon.rho == tc.rho

    def test_truth_on_lattice_needs_no_iterations(self):
        prob = get_problem("scalar-linear")
        # shrink the box so its center (a lattice point) is the planted truth
        box = CompactBox(np.array([0.4]), np.array([0.6]))
        q_op = MeasurementOperator.identity(1)
        y = q_op(prob.y_exact)
        x_hat, trace = reconstruct_exact(
            prob.model, q_op, box, prob.certificate, 0.5, 1e-14, y,
            x_dagger=prob.x_dagger,
        )
        assert trace.terminal == "zero_residual"
        assert trace.iterations == 0
        assert x_hat[0] == 0.5

    def test_quadratic_oracle_constants_full_pipeline(self, gallery_problems):
        prob = gallery_problems["quadratic-2d"]
        q_op = MeasurementOperator.identity(prob.model.dim_y)
        y = q_op(prob.y_exact)
        x_hat, trace = reconstruct_exact(
            prob.model, q_op, prob.default_box, prob.certificate, 0.5,
            1e-10, y, x_dagger=prob.x_dagger,
        )
        assert trace.hypothesis.armed
        assert np.linalg.norm(x_hat - prob.x_dagger) <= 1e-5
        # the scanned start satisfies the proximity bound
        assert np.linalg.norm(trace.recon.x0 - prob.x_dagger) < trace.recon.rho


class TestReconstructNoisy:
    def test_golden_scalar_run(self, gallery_problems):
        prob = gallery_problems["scalar-linear"]
        q_op = MeasurementOperator.identity(1)
        rng = np.random.default_rng(99)
        delta = 1e-4
        u = rng.standard_normal(1)
        y_delta = q_op(prob.y_exact) + delta * u / np.linalg.norm(u)
        x_hat, trace = reconstruct_noisy(
            prob.model, q_op, prob.default_box, prob.certificate, 0.5, 4.0,
            delta, y_delta, 100, x_dagger=prob.x_dagger,
        )
        assert trace.terminal == "discrepancy_stop"
        # final error is O(delta) for the well-posed scalar model
        assert abs(x_hat[0] - 0.5) <= 10 * delta

    def test_budget_exhausted_path(self, gallery_problems):
        prob = gallery_problems["quadratic-2d"]
        q_op = MeasurementOperator.identity(prob.model.dim_y)
        rng = np.random.default_rng(100)
        delta = 1e-6
        u = rng.standard_normal(prob.model.dim_y)
        y_delta = q_op(prob.y_exact) + delta * u / np.linalg.norm(u)
        x_hat, trace = reconstruct_noisy(
            prob.model, q_op, prob.default_box, prob.certificate, 0.5, 4.0,
            delta, y_delta, 1, x_dagger=prob.x_dagger,
        )
        assert trace.terminal == "budget_exhausted"
        assert trace.k_star is None
