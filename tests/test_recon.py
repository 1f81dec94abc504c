import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_stacks_match_per_point, linear_model
from lmrecon.cli import make_noise
from lmrecon.engine import compute_constants_exact
from lmrecon import recon
from lmrecon.errors import (
    ConditionViolated,
    DimensionMismatch,
    LatticeTooLarge,
    NoCandidateFound,
)
from lmrecon.gallery import get_problem
from lmrecon.operators import (
    STACK_BLOCK,
    ForwardModel,
    apply_forward,
    finite_difference_jacobian,
    jacobian_matrix,
    row_norms,
)
from lmrecon.recon import (
    DEFAULT_LATTICE_CAP,
    CompactBox,
    Lattice,
    MeasurementOperator,
    build_lattice,
    compose_measured_model,
    lattice_radius,
    reconstruct_exact,
    reconstruct_noisy,
    scan_for_initial_guess,
)


class TestMeasurementOperator:
    def test_presets(self):
        # the identity is the one preset; every other Q is a matrix
        assert MeasurementOperator.identity(3).is_identity
        avg = MeasurementOperator(np.full((1, 4), 0.25))
        assert avg(np.array([1.0, 2.0, 3.0, 4.0]))[0] == 2.5
        sel = MeasurementOperator(np.array([[1.0, 0.0, 0.0]]))
        assert np.array_equal(sel(np.array([5.0, 6.0, 7.0])), [5.0])

    def test_identity_is_decided_by_the_matrix(self):
        # however it is spelled; -0.0 equals 0.0 entry for entry
        for mat in (np.eye(3), [[1.0, -0.0], [0.0, 1.0]], [[1.0]]):
            assert MeasurementOperator(np.array(mat)).is_identity
        for mat in ([[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]],
                    [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]):
            assert not MeasurementOperator(np.array(mat)).is_identity


class TestComposition:
    def test_identity_composition_is_identity(self):
        prob = get_problem("exp-decay")
        q = MeasurementOperator.identity(prob.model.dim_y)
        comp = compose_measured_model(prob.model, q)
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = prob.model.center + 0.2 * rng.standard_normal(2)
            assert np.array_equal(apply_forward(comp, x),
                                  apply_forward(prob.model, x))

    def test_identity_returns_the_model(self, gallery_problems):
        for prob in gallery_problems.values():
            model = prob.model
            q = MeasurementOperator.identity(model.dim_y)
            assert compose_measured_model(model, q) is model
        # a square Q other than the identity is still composed
        model = linear_model(np.array([[2.0], [5.0]]))
        for mat in ([[0.0, 1.0], [1.0, 0.0]], [[2.0, 0.0], [0.0, 2.0]]):
            comp = compose_measured_model(model, MeasurementOperator(np.array(mat)))
            assert comp is not model
            assert np.array_equal(comp.forward(np.array([1.0])),
                                  np.array(mat) @ [2.0, 5.0])

    def test_row_selector_projection(self):
        model = linear_model(np.array([[2.0], [5.0]]))
        q = MeasurementOperator(np.array([[1.0, 0.0]]))
        comp = compose_measured_model(model, q)
        assert comp.dim_y == 1
        assert apply_forward(comp, [3.0])[0] == 6.0

    def test_averaging_jacobian_matches_finite_differences(self):
        prob = get_problem("exp-decay")
        m = prob.model.dim_y
        q = MeasurementOperator(np.full((1, m), 1.0 / m))
        comp = compose_measured_model(prob.model, q)
        x = np.array([1.1, 0.9])
        jac = jacobian_matrix(comp, x)
        fd = finite_difference_jacobian(comp, x)
        assert np.linalg.norm(fd - jac) <= 1e-6 * (1.0 + np.linalg.norm(jac))

    def test_composition_preserves_adjoint(self):
        prob = get_problem("exp-decay")
        m = prob.model.dim_y
        q = MeasurementOperator(np.full((1, m), 1.0 / m))
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

    def test_overflowing_product_violates_a_hypothesis(self):
        # the product once overflowed to inf, the hit radius to 0, and the
        # lattice blamed the target accuracy
        with pytest.raises(ConditionViolated,
                           match=r"2\*forward_lip\*recon_const\*q_norm overflows"):
            lattice_radius(self.cert(forward_lip=1e200, recon_const=1e200), 0.03125)

    def test_zero_rho_is_a_zero_radius(self):
        # rho underflows to 0 at extreme constants: only a degenerate box has
        # a lattice of radius 0 (the other boxes raise LatticeTooLarge)
        assert lattice_radius(self.cert(), 0.0) == 0.0
        box = CompactBox(np.array([0.3, 0.3]), np.array([0.3, 0.3]))
        assert build_lattice(box, 0.0).size == 1


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

    @pytest.mark.parametrize("lower, upper", [
        ([0.0, 0.0], [np.inf, 1.0]),
        ([-1e308, 0.0], [1e308, 1.0]),  # the extent overflows to inf
    ])
    def test_infinite_lattice(self, lower, upper):
        with pytest.raises(LatticeTooLarge, match="infinitely many"):
            build_lattice(CompactBox(np.array(lower), np.array(upper)), 0.25)

    def test_zero_radius_is_an_infinite_lattice(self):
        # rho underflowed to 0 at extreme constants
        with pytest.raises(LatticeTooLarge, match="infinitely many.*underflows"):
            build_lattice(CompactBox(np.zeros(2), np.ones(2)), 0.0)

    @pytest.mark.parametrize("lower, upper, error, match", [
        # np.any(lo > up) is False for NaN, so the order check cannot see it
        ([np.nan], [1.0], ValueError, "box lower bound .* holds NaN"),
        ([0.0, 0.0], [1.0, np.nan], ValueError, "box upper bound .* holds NaN"),
        ([0.0, 2.0], [1.0, 1.0], ValueError, "lower bound exceeds upper bound"),
        ([0.0], [1.0, 1.0], DimensionMismatch, "1-D arrays of equal length"),
        ([[0.0]], [[1.0]], DimensionMismatch, "1-D arrays of equal length"),
    ])
    def test_invalid_bounds_rejected(self, lower, upper, error, match):
        with pytest.raises(error, match=match):
            CompactBox(np.array(lower), np.array(upper))

    def test_covering_property_sampled(self):
        box = CompactBox(np.array([-0.5, 0.25]), np.array([1.5, 0.75]))
        lat = build_lattice(box, 0.2)
        rng = np.random.default_rng(6)
        samples = box.lower + rng.random((10**4, 2)) * (box.upper - box.lower)
        for s in samples:
            d = np.min(np.linalg.norm(lat.points - s, axis=1))
            assert d <= lat.covering_radius * (1.0 + 1e-12)


class TestLatticeBlocks:
    def test_lattice_below_the_cap_holds_only_its_axes(self):
        # 3162 cells per axis: 9 998 244 points, just below the cap
        box = CompactBox(np.zeros(2), np.ones(2))
        r_cover = 0.5 * math.sqrt(2.0) / 3161.5
        tracemalloc.start()
        try:
            lat = build_lattice(box, r_cover)
            size = lat.size
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size == 3162**2 < DEFAULT_LATTICE_CAP
        assert peak < 2**20
        # its last points, against the reference formula on one axis
        axis = (np.arange(3162) + 0.5) * (1.0 / 3162)
        tail = lat.block(size - 3, size + 3)
        assert tail.tobytes() == np.column_stack(
            [np.full(3, axis[-1]), axis[-3:]]).tobytes()
        # 3163 cells per axis exceed it
        with pytest.raises(LatticeTooLarge, match="cap"):
            build_lattice(box, 0.5 * math.sqrt(2.0) / 3162.5)


class TestScan:
    def test_truth_on_lattice_is_returned(self):
        prob = get_problem("scalar-linear")
        # lattice {0.25, 0.75} on [0,1]: plant the truth at a node
        lat = build_lattice(prob.default_box, 0.25)
        truth = lat.points[0]
        y = apply_forward(prob.model, truth)
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
        y = apply_forward(prob.model, prob.x_dagger)
        x0 = scan_for_initial_guess(lat, prob.model, y,
                                    rho / (2.0 * cert.recon_const))
        assert abs(x0[0] - 0.5) < rho

    def test_zero_threshold_fails(self):
        prob = get_problem("scalar-linear")
        lat = build_lattice(prob.default_box, 0.25)
        y = apply_forward(prob.model, prob.x_dagger)
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

    @pytest.mark.parametrize("pid", ["exp-decay", "quadratic-2d"])
    @pytest.mark.parametrize("batched", [True, False])
    def test_block_boundaries_match_per_point_reference(self, pid, batched,
                                                        gallery_problems):
        prob = gallery_problems[pid]
        measured = compose_measured_model(
            prob.model, MeasurementOperator.identity(prob.model.dim_y))
        if not batched:
            # forward_stack then falls back to per-point forward
            measured = dataclasses.replace(measured, forward_batch=None)
        lat = build_lattice(prob.default_box, 0.012)
        assert lat.size >= 3 * STACK_BLOCK and lat.size % STACK_BLOCK != 0
        planted = [0, STACK_BLOCK - 1, STACK_BLOCK, lat.size - 1]
        for j in planted:
            y = measured.forward(lat.points[j])
            # per-point reference: the distance of every lattice point
            dist = [np.linalg.norm(measured.forward(p) - y) for p in lat.points]
            # the smallest subnormal threshold then hits exactly at j
            assert dist.index(0.0) == j
            # each planted distance itself (fails the strict <) and the next
            # float above it (passes); 0 and the smallest subnormal for j
            thresholds = [t for k in planted
                          for t in (dist[k], np.nextafter(dist[k], np.inf))]
            for threshold in thresholds:
                expected = next(
                    (i for i, d in enumerate(dist) if d < threshold), None)
                if expected is None:
                    with pytest.raises(NoCandidateFound):
                        scan_for_initial_guess(lat, measured, y, threshold)
                    continue
                x0, hit, scanned = scan_for_initial_guess(
                    lat, measured, y, threshold, details=True)
                assert (hit, scanned) == (expected, expected + 1)
                assert np.array_equal(x0, lat.points[expected])

    @pytest.mark.parametrize("batched", [True, False])
    def test_non_finite_rows_are_skipped(self, batched):
        # 1-D lattice over three blocks; every point before index `first`
        # has NaN or inf data, in earlier blocks and in the hit's own block
        size = 3 * STACK_BLOCK
        first = STACK_BLOCK + 5
        lat = Lattice(axes=(np.arange(size, dtype=float),), covering_radius=0.5)

        def forward_batch(xs):
            # the finite coordinate of a non-finite row equals the data, so
            # only its NaN or inf keeps it from passing
            i = xs[:, 0]
            bad = np.where(i % 3 == 0, np.nan, np.where(i % 3 == 1, np.inf, -np.inf))
            return np.column_stack([np.where(i < first, bad, i),
                                    np.where(i < first, first, i)])

        model = ForwardModel(
            dim_x=1, dim_y=2, center=np.zeros(1), radius_sq=np.inf,
            forward=lambda x: forward_batch(x[None, :])[0],
            jacobian_apply=lambda x, v: np.zeros(2),
            jacobian_adjoint_apply=lambda x, w: np.zeros(1),
            forward_batch=forward_batch if batched else None,
        )
        y = np.array([first, first], dtype=float)
        x0, hit, scanned = scan_for_initial_guess(lat, model, y, 1e-9,
                                                  details=True)
        assert (hit, scanned) == (first, first + 1)
        assert np.array_equal(x0, [float(first)])
        with pytest.raises(NoCandidateFound):
            scan_for_initial_guess(lat, model, np.array([-1.0, first]), 0.5)

    @staticmethod
    def _table_scan(table):
        """The lattice 0, 1, ..., k - 1 and a model whose data at point i
        is row i of ``table``."""
        lat = Lattice(axes=(np.arange(table.shape[0], dtype=float),),
                      covering_radius=0.5)
        model = ForwardModel(
            dim_x=1, dim_y=table.shape[1], center=np.zeros(1), radius_sq=np.inf,
            forward=lambda x: table[int(x[0])],
            jacobian_apply=lambda x, v: np.zeros(table.shape[1]),
            jacobian_adjoint_apply=lambda x, w: np.zeros(1),
            forward_batch=lambda xs: table[xs[:, 0].astype(int)],
        )
        return lat, model

    # rows of each kind, for a (count, dim_y) draw g of standard normals
    ROWS = {
        "normal": lambda rng, g: g * 10.0 ** rng.uniform(-3.0, 3.0, (len(g), 1)),
        # one entry a power of two s, the others with squares of 1 to 1.5
        # times 2**-53 s**2, each of which rounds a running sum from s**2
        # up: summed in different orders, the screen's squares and the
        # exact norm's round apart by a number of units that grows with
        # dim_y
        "absorbed": lambda rng, g: np.where(
            np.arange(g.shape[1]) == 0, 1.0,
            np.sqrt(rng.uniform(1.0, 1.5, g.shape) * 2.0**-53),
        ) * 2.0 ** rng.integers(-10, 11, (len(g), 1)),
        # finite rows whose squares overflow, and rows whose squares are
        # subnormal or underflow
        "overflowing": lambda rng, g: g / np.abs(g).max(axis=1, keepdims=True)
        * 10.0 ** rng.uniform(155.0, 308.0, (len(g), 1)),
        "subnormal": lambda rng, g: g / np.abs(g).max(axis=1, keepdims=True)
        * 10.0 ** rng.uniform(-320.0, -155.0, (len(g), 1)),
        "zero": lambda rng, g: 0.0 * g,
        "nan": lambda rng, g: np.where(g == g.max(axis=1, keepdims=True), np.nan, g),
        "inf": lambda rng, g: np.where(g == g.max(axis=1, keepdims=True),
                                       rng.choice([-np.inf, np.inf]), g),
    }
    THRESHOLDS = [0.0, -0.0, -1.0, -np.inf, np.nan, np.inf, 1e155, 1e200,
                  1.7976931348623157e308, 1e-155, 1e-200, 5e-324]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_screened_scan_takes_the_first_exact_hit(self, data):
        # whatever the rows and the threshold, the screened scan returns the
        # first row whose row_norms norm, taken over all rows at once, is
        # below the threshold, and refuses when there is none; nothing warns
        dim_y = data.draw(st.integers(1, 1000), label="dim_y")
        k = data.draw(st.integers(1, min(3 * STACK_BLOCK, 200_000 // dim_y)),
                      label="points")
        kinds = sorted(data.draw(st.sets(st.sampled_from(sorted(self.ROWS)),
                                         min_size=1, max_size=3), label="kinds"))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                              label="seed"))
        g = rng.standard_normal((k, dim_y))
        kind = rng.integers(len(kinds), size=k)
        table = np.empty((k, dim_y))
        for j, name in enumerate(kinds):
            table[kind == j] = self.ROWS[name](rng, g[kind == j])
        y = (rng.standard_normal(dim_y) if data.draw(st.booleans(), label="y")
             else np.zeros(dim_y))
        norms = row_norms(table - y)
        # at a row's norm (which fails the strict test), at the next float
        # above it, just above the smallest norm, or a value at an edge
        rule = data.draw(st.sampled_from(["at", "above", "above least", "edge"]),
                         label="rule")
        row = data.draw(st.integers(0, k - 1), label="row")
        threshold = {
            "at": norms[row],
            "above": np.nextafter(norms[row], np.inf),
            "above least": np.nextafter(np.fmin.reduce(norms, initial=np.inf),
                                        np.inf),
            "edge": data.draw(st.sampled_from(self.THRESHOLDS), label="edge"),
        }[rule]
        lat, model = self._table_scan(table)
        hits = np.flatnonzero(norms < threshold)
        if not hits.shape[0]:
            with pytest.raises(NoCandidateFound):
                scan_for_initial_guess(lat, model, y, threshold)
            return
        x0, hit, scanned = scan_for_initial_guess(lat, model, y, threshold,
                                                  details=True)
        assert (hit, scanned) == (hits[0], hits[0] + 1)
        assert x0.tolist() == [float(hits[0])]

    @pytest.mark.parametrize("threshold", [0.0, -0.0, -1e-300, -np.inf, np.nan])
    def test_no_positive_threshold_refuses_before_any_block(self, threshold):
        # no norm is below 0 or NaN: the scan refuses without forming a
        # single point, however large the lattice

        class Unformed(Lattice):
            def block(self, start, stop):
                raise AssertionError("a block was formed")

        lat = Unformed(axes=(np.arange(3 * STACK_BLOCK, dtype=float),),
                       covering_radius=0.5)
        with pytest.raises(NoCandidateFound, match="no lattice point within"):
            scan_for_initial_guess(lat, linear_model(np.eye(1)), [0.0], threshold)


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
            y = apply_forward(comp, truth)
            x0 = scan_for_initial_guess(lat, comp, y, threshold)
            # proximity bound: a hit is within rho of the truth
            assert np.linalg.norm(x0 - truth) < rho

    def test_box_excluding_truth_reports_no_candidate(self, gallery_problems):
        prob = gallery_problems["exp-decay"]
        cert = prob.certificate
        rho = 0.1
        bad_box = CompactBox(np.array([0.5, 1.0]), np.array([1.0, 1.5]))
        lat = build_lattice(bad_box, lattice_radius(cert, rho))
        y = apply_forward(prob.model, prob.x_dagger)
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

    def test_noise_level_at_the_scan_threshold_is_recorded(self, gallery_problems):
        # noise-free data, so the scan still hits; a delta at the threshold
        # voids the hit guarantee, one just below it does not
        prob = gallery_problems["scalar-linear"]
        q_op = MeasurementOperator.identity(1)

        def run(delta):
            return reconstruct_noisy(
                prob.model, q_op, prob.default_box, prob.certificate, 0.5, 4.0,
                delta, q_op(prob.y_exact), 50, x_dagger=prob.x_dagger)[1]

        threshold = run(1e-2).recon.scan_threshold
        trace = run(threshold)
        assert trace.terminal == "discrepancy_stop"
        assert trace.warnings == [
            f"noise level {threshold:.6g} is not small against the scan "
            f"threshold {threshold:.6g}; the hit guarantee does not apply"]
        assert run(np.nextafter(threshold, 0.0)).warnings == []


# Reconstruction results recorded before the exact and noisy pipelines shared
# one body: the ReconSummary, x_final (floats as float.hex), the terminal,
# k_star and the warnings.  The exp-decay cases are c07a and c07b with their
# run-scale overrides; the quadratic-2d cases run on the oracle constants.
PINNED_RECONSTRUCTIONS = {
    ("exp-decay", "exact"): (
        {"lattice_size": 2116, "covering_radius": "0x1.f7b4baffeef06p-7",
         "scan_threshold": "0x1.8578908af0636p-6", "scanned": 1435,
         "chosen_index": 1434,
         "x0": ["0x1.2f4de9bd37a6fp+0", "0x1.5e9bd37a6f4dep-1"],
         "rho": "0x1.8578908af0636p-4", "budget": 321},
        ["0x1.33333333332d9p+0", "0x1.6666666666511p-1"],
        "zero_residual", None,
        ["residual 2.942e-14 at the machine-precision floor; treated as converged"]),
    ("exp-decay", "noisy"): (
        {"lattice_size": 33124, "covering_radius": "0x1.fd3dbfde2ca45p-9",
         "scan_threshold": "0x1.8578908af0636p-8", "scanned": 22968,
         "chosen_index": 22967,
         "x0": ["0x1.31ef1ef1ef1f0p+0", "0x1.63de3de3de3dep-1"],
         "rho": "0x1.8578908af0636p-6", "budget": 200},
        ["0x1.32aad54b9eff7p+0", "0x1.653745a261277p-1"],
        "discrepancy_stop", 1, []),
    ("quadratic-2d", "exact"): (
        {"lattice_size": 324, "covering_radius": "0x1.41cfe93ff5199p-5",
         "scan_threshold": "0x1.ab8c72070ce47p-5", "scanned": 239,
         "chosen_index": 238,
         "x0": ["0x1.0000000000000p-2", "-0x1.0000000000000p-2"],
         "rho": "0x1.2778977e1f287p-4", "budget": 259},
        ["0x1.0000000000000p-2", "-0x1.9999999999cb6p-3"],
        "zero_residual", None,
        ["residual 1.990e-14 at the machine-precision floor; treated as converged"]),
    ("quadratic-2d", "noisy"): (
        {"lattice_size": 5041, "covering_radius": "0x1.46583f76f1574p-7",
         "scan_threshold": "0x1.ab8c72070ce47p-7", "scanned": 3714,
         "chosen_index": 3713,
         "x0": ["0x1.ea5dbf193d4bcp-3", "-0x1.93d4bb7e327aap-3"],
         "rho": "0x1.2778977e1f287p-6", "budget": 200},
        ["0x1.ffffad161c8f3p-3", "-0x1.999888dcf19dap-3"],
        "discrepancy_stop", 12, []),
}


@pytest.mark.parametrize("pid, kind", list(PINNED_RECONSTRUCTIONS))
def test_reconstructions_are_pinned(pid, kind, gallery_problems):
    prob = gallery_problems[pid]
    cert = prob.certificate
    if pid == "exp-decay":
        cert = dataclasses.replace(cert, lip_deriv=0.5, holder_const=0.81,
                                   recon_const=2.0, provenance="user")
    q_op = MeasurementOperator.identity(prob.model.dim_y)
    y = q_op(prob.y_exact)
    if kind == "exact":
        _, trace = reconstruct_exact(prob.model, q_op, prob.default_box, cert,
                                     0.5, 1e-10, y, x_dagger=prob.x_dagger)
    else:
        delta = 1e-3 if pid == "exp-decay" else 1e-6
        _, trace = reconstruct_noisy(prob.model, q_op, prob.default_box, cert,
                                     0.5, 4.0, delta, make_noise(y, delta, 55),
                                     200, x_dagger=prob.x_dagger)
    summary = {k: [float(x).hex() for x in v] if isinstance(v, list)
               else v.hex() if isinstance(v, float) else v
               for k, v in trace.recon.as_dict().items()}
    x_final = [float(x).hex() for x in trace.x_final]
    assert (summary, x_final, trace.terminal, trace.k_star, trace.warnings) == \
        PINNED_RECONSTRUCTIONS[pid, kind]


def test_budget_cap_admits_budgets_up_to_the_cap(monkeypatch, gallery_problems):
    # quadratic-2d's pinned exact reconstruction takes a budget of 259
    # steps: a cap of 259 runs it, and a cap of 258 refuses it
    prob = gallery_problems["quadratic-2d"]
    q_op = MeasurementOperator.identity(prob.model.dim_y)
    args = (prob.model, q_op, prob.default_box, prob.certificate, 0.5, 1e-10,
            q_op(prob.y_exact))
    monkeypatch.setattr(recon, "BUDGET_CAP", 259)
    assert reconstruct_exact(*args)[1].recon.budget == 259
    monkeypatch.setattr(recon, "BUDGET_CAP", 258)
    with pytest.raises(ConditionViolated, match=r"after 259 iterations \(cap 258\)"):
        reconstruct_exact(*args)


class TestLatticeBlockIndexing:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_block_matches_unravelled_indices(self, data):
        # any axis lengths, up to five axes, against np.unravel_index over
        # every index of the range
        counts = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=5),
                           label="counts")
        axes = tuple(np.linspace(-1.0, 1.0, c) * (i + 1.5)
                     for i, c in enumerate(counts))
        lat = Lattice(axes=axes, covering_radius=1.0)
        start = data.draw(st.integers(0, lat.size + 2), label="start")
        stop = data.draw(st.integers(start, lat.size + 3), label="stop")
        index = np.unravel_index(np.arange(start, min(stop, lat.size)), counts)
        want = np.column_stack([axis[i] for axis, i in zip(axes, index)])
        got = lat.block(start, stop)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
