import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    GALLERY_IDS,
    assert_stacks_match_per_point,
    linear_model,
    non_finite_model,
)
from lmrecon import gallery
from lmrecon.errors import (
    CertificationFailed,
    DegenerateModel,
    DimensionMismatch,
    NonFiniteOutput,
)
from lmrecon.gallery import (
    INFLATION,
    REVERIFY_SLACK,
    _exp_decay_model,
    _pair_arrays,
    _pair_quantities,
    _quadratic_model,
    _spectral_norms,
    certify,
    estimate_stability_constants,
    exp_decay,
    get_problem,
    quadratic_perturbation,
    sabotaged_adjoint_fixture,
    scalar_linear,
    verify_certificate,
)
from lmrecon.operators import (
    STACK_BLOCK,
    ForwardModel,
    apply_forward,
    finite_difference_jacobian,
    jacobian_matrix,
    jacobian_stack,
)
from lmrecon.recon import CompactBox


class TestEstimator:
    def test_scalar_closed_forms(self):
        prob = scalar_linear(2.0, 0.5)
        cert = estimate_stability_constants(prob.model, prob.default_box,
                                            eps=1.0, samples=10000, seed=1)
        assert abs(cert.holder_const - 1.05 / (2.0 * math.sqrt(2.0))) <= 1e-12
        assert abs(cert.jac_bound - 2.1) <= 1e-12
        assert abs(cert.forward_lip - 2.1) <= 1e-12
        assert cert.provenance == "oracle-estimated"

    def test_linear_model_lipschitz_estimate_is_floor(self):
        model = linear_model(np.array([[1.0, 0.3], [0.0, 2.0]]))
        box = CompactBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        cert = estimate_stability_constants(model, box, eps=1.0,
                                            samples=10000, seed=2)
        assert cert.lip_deriv < 1e-12

    def test_requires_enough_samples(self):
        prob = scalar_linear(2.0, 0.5)
        with pytest.raises(ValueError):
            estimate_stability_constants(prob.model, prob.default_box,
                                         eps=1.0, samples=100)

    def test_degenerate_model(self):
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: np.array([1.0]),
            jacobian_apply=lambda x, v: np.zeros(1),
            jacobian_adjoint_apply=lambda x, w: np.zeros(1),
        )
        box = CompactBox(np.array([0.0]), np.array([1.0]))
        with pytest.raises(DegenerateModel):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)

    def test_degenerate_message_names_first_pair(self):
        # F is constant on [0.8, 1], so the first pair with both points
        # there is the first degenerate one
        model = ForwardModel(
            dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
            forward=lambda x: np.minimum(x, 0.8),
            jacobian_apply=lambda x, v: np.where(x < 0.8, v, 0.0),
            jacobian_adjoint_apply=lambda x, w: np.where(x < 0.8, w, 0.0),
        )
        box = CompactBox(np.array([0.0]), np.array([1.0]))
        pa, pb = _pair_arrays(box, 10000, 0)
        first = np.flatnonzero((pa[:, 0] >= 0.8) & (pb[:, 0] >= 0.8))[0]
        assert first > 0
        with pytest.raises(DegenerateModel,
                           match=re.escape(f"F({pa[first]}) = F({pb[first]})")):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)

    @pytest.mark.parametrize("part, value", [
        ("jacobian_apply", np.nan),
        ("jacobian_apply", np.inf),
        ("forward", np.nan),
        ("forward", np.inf),
    ])
    def test_non_finite_output(self, part, value):
        # Neither a numpy LinAlgError from the spectral norm nor a
        # certificate built from NaN sample maxima may come out.
        model = non_finite_model(part, value)
        box = CompactBox(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(NonFiniteOutput):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)
        cert = scalar_linear(2.0, 0.0).certificate
        with pytest.raises(NonFiniteOutput):
            verify_certificate(model, box, cert)


# float.hex of every constant of the sampled gallery certificates; the
# array-pass oracle must reproduce the per-pair loop it replaced bit for bit.
GOLDEN_CERTIFICATES = {
    "exp-decay": {
        "lip_deriv": "0x1.3a6d358e40c6dp+1", "jac_bound": "0x1.bf5edaea021bfp+0",
        "holder_const": "0x1.3c7d8e494f5a6p+2", "holder_eps": "0x1.0000000000000p+0",
        "domain_rho_prime": "0x1.0000000000000p-3",
        "forward_lip": "0x1.8789d5a2097b2p+0", "recon_const": "0x1.bf95c876fc786p+1",
        "q_norm": "0x1.0000000000000p+0",
    },
    "exp-decay-2pt": {
        "lip_deriv": "0x1.25fb0bd1298b3p+0", "jac_bound": "0x1.5fb97b3976d83p+0",
        "holder_const": "0x1.66de39aa419f3p+2", "holder_eps": "0x1.0000000000000p+0",
        "domain_rho_prime": "0x1.0000000000000p-3",
        "forward_lip": "0x1.49bf1b930745bp+0", "recon_const": "0x1.fb841e5828ad4p+1",
        "q_norm": "0x1.0000000000000p+0",
    },
    "quadratic-2d": {
        "lip_deriv": "0x1.0cccccccccccep-1", "jac_bound": "0x1.5000000000000p+0",
        "holder_const": "0x1.f4658be84dabdp-1", "holder_eps": "0x1.0000000000000p+0",
        "domain_rho_prime": "0x1.0000000000000p-3",
        "forward_lip": "0x1.4b09467e3ffe5p+0", "recon_const": "0x1.61d578e36afdap-1",
        "q_norm": "0x1.0000000000000p+0",
    },
    "quadratic-3d": {
        "lip_deriv": "0x1.ae147ae147ae0p-2", "jac_bound": "0x1.428f5c28f5c29p+0",
        "holder_const": "0x1.ccd0dcad0abf6p-1", "holder_eps": "0x1.0000000000000p+0",
        "domain_rho_prime": "0x1.0000000000000p-3",
        "forward_lip": "0x1.3c8000e41a96bp+0", "recon_const": "0x1.45d895119c292p-1",
        "q_norm": "0x1.0000000000000p+0",
    },
}


@pytest.mark.parametrize("pid", sorted(GOLDEN_CERTIFICATES))
def test_sampled_certificates_are_pinned(pid, gallery_problems):
    cert = gallery_problems[pid].certificate
    golden = GOLDEN_CERTIFICATES[pid]
    assert {name: getattr(cert, name).hex() for name in golden} == golden


class TestBatchedModels:
    UNIT_BOX = CompactBox(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(st.floats(0.0, 5.0), min_size=2, max_size=6, unique=True),
           xs=st.integers(1, 40).flatmap(
               lambda k: arrays(np.float64, (k, 2), elements=st.floats(-3.0, 3.0))))
    def test_exp_decay_batches_match_per_point(self, times, xs):
        assert_stacks_match_per_point(_exp_decay_model(np.array(times), self.UNIT_BOX), xs)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), eta=st.floats(-1.0, 1.0))
    def test_quadratic_batches_match_per_point(self, data, n, eta):
        a_mat = data.draw(arrays(np.float64, (n, n), elements=st.floats(-2.0, 2.0)))
        assume(not np.array_equal(a_mat, np.eye(n)))
        assume(np.linalg.svd(a_mat, compute_uv=False)[-1] > 1e-3)
        xs = data.draw(st.integers(1, 40).flatmap(
            lambda k: arrays(np.float64, (k, n), elements=st.floats(-3.0, 3.0))))
        box = CompactBox(np.full(n, -1.0), np.full(n, 1.0))
        assert_stacks_match_per_point(_quadratic_model(a_mat, eta, box), xs)

    @staticmethod
    def _per_pair_loop(model, pa, pb):
        """Reference: the pair quantities one pair at a time, with the
        spectral screen applied to one matrix at a time."""
        def norm(j):
            return _spectral_norms(j[None])[0]

        jac, apart = [], []
        for a, b in zip(pa, pb):
            ja, jb = jacobian_matrix(model, a), jacobian_matrix(model, b)
            jac += [norm(ja), norm(jb)]
            d = float(np.linalg.norm(a - b))
            if d != 0.0:
                fd = float(np.linalg.norm(model.forward(a) - model.forward(b)))
                apart.append((d, norm(ja - jb), fd))
        return (np.array(jac), *np.array(apart).T)

    def _assert_match_per_pair_loop(self, model, pa, pb):
        plain = dataclasses.replace(model, forward_batch=None,
                                    jacobian_batch=None)
        want = self._per_pair_loop(model, pa, pb)
        for each in (model, plain):
            for got, ref in zip(_pair_quantities(each, pa, pb), want, strict=True):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("pid", ["exp-decay", "quadratic-3d"])
    def test_pair_quantities_match_per_pair_loop(self, pid, gallery_problems):
        prob = gallery_problems[pid]
        # more pairs than one block, so the block seams are covered too
        pa, pb = _pair_arrays(prob.default_box, 2500, 7)
        self._assert_match_per_pair_loop(prob.model, pa, pb)

    def test_coinciding_pairs_match_per_pair_loop(self, gallery_problems):
        # x1 takes one of two adjacent floats, so about half of the random
        # pairs and some grid pairs coincide within every block, which is
        # then indexed down to its pairs with a != b
        box = CompactBox(np.array([1.0, 1.0]), np.array([np.nextafter(1.0, 2.0), 1.0]))
        pa, pb = _pair_arrays(box, 2500, 7)
        same = np.all(pa == pb, axis=1)
        assert 0 < np.count_nonzero(same[:STACK_BLOCK]) < STACK_BLOCK
        self._assert_match_per_pair_loop(gallery_problems["exp-decay"].model, pa, pb)

    @pytest.mark.parametrize("field, output", [
        ("forward_batch", lambda xs: xs[:, :, None]),
        ("jacobian_batch", lambda xs: xs),
    ])
    def test_wrong_batch_shape(self, field, output):
        model = dataclasses.replace(linear_model([[2.0]]), **{field: output})
        box = CompactBox(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(DimensionMismatch, match="batched"):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)

    @pytest.mark.parametrize("field, shape", [
        ("forward_batch", lambda k: (k, 1)),
        ("jacobian_batch", lambda k: (k, 1, 1)),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_batch_output(self, field, shape, value):
        model = dataclasses.replace(
            linear_model([[2.0]]),
            **{field: lambda xs: np.full(shape(xs.shape[0]), value)})
        box = CompactBox(np.array([-1.0]), np.array([1.0]))
        with pytest.raises(NonFiniteOutput):
            estimate_stability_constants(model, box, eps=1.0, samples=10000)
        with pytest.raises(NonFiniteOutput):
            verify_certificate(model, box, scalar_linear(2.0, 0.0).certificate)


def _lapack_norms(stack):
    # numpy takes LAPACK's SVD of each matrix of the stack on its own: the
    # bits of np.linalg.norm(J, 2) called pair by pair
    return np.linalg.norm(stack, 2, axis=(1, 2))


def _float_hex(cert):
    return {f.name: getattr(cert, f.name).hex()
            for f in dataclasses.fields(cert) if isinstance(getattr(cert, f.name), float)}


class TestScreenedNorms:
    """The spectral screen against LAPACK, and the oracle's outputs with the
    screen against the same oracle with LAPACK norms on every pair."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 4),
           rank=st.integers(0, 4), exponent=st.integers(-200, 200))
    def test_screen_matches_lapack(self, data, m, n, rank, exponent):
        # entries are 0 or at least 1e-50 in size, so that no matrix is
        # scaled down to subnormal numbers, where relative errors mean nothing
        entry = st.floats(-1.0, 1.0).map(lambda v: v if abs(v) > 1e-50 else 0.0)
        k = data.draw(st.integers(1, 6))
        rank = min(rank, m, n)  # rank 0: zero matrices
        left = data.draw(arrays(np.float64, (k, m, rank), elements=entry))
        right = data.draw(arrays(np.float64, (k, rank, n), elements=entry))
        stack = (left @ right) * 10.0**exponent
        want = _lapack_norms(stack)
        got = _spectral_norms(stack)
        assert np.all(np.abs(got - want) <= 1e-14 * want), (got, want)

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 100), n=st.integers(1, 12), k=st.integers(1, 4),
           wide=st.booleans(), seed=st.integers(0, 2**32 - 1),
           exponent=st.integers(-200, 200))
    def test_screen_matches_lapack_tall_and_wide(self, m, n, k, wide, seed,
                                                 exponent):
        # up to 100 x 12 and 12 x 100: numpy sums the Gram entries of a
        # single matrix (k = 1) with 8 or more rows pairwise, and those of a
        # stack row by row; both stay within the bound of the small shapes
        stack = np.random.default_rng(seed).standard_normal((k, m, n)) * 10.0**exponent
        if wide:
            stack = stack.transpose(0, 2, 1)
        want = _lapack_norms(stack)
        got = _spectral_norms(stack)
        assert np.all(np.abs(got - want) <= 1e-14 * want), (got, want)

    @staticmethod
    def _assert_oracle_matches_lapack(model, box, seed, level):
        # verify draws its pairs from seed + 1; put its violation threshold
        # on the LAPACK norm at ``level`` among them, where a screened norm
        # one ulp off would flip a count
        pa, pb = _pair_arrays(box, 10000, seed + 1)
        with mock.patch.object(gallery, "_spectral_norms", _lapack_norms):
            jac, d, jd, _ = _pair_quantities(model, pa, pb)
        on = 1.0 + REVERIFY_SLACK

        def outputs():
            cert = estimate_stability_constants(model, box, eps=1.0, seed=seed)
            tight = dataclasses.replace(
                cert, jac_bound=np.quantile(jac, level, method="lower") / on,
                lip_deriv=np.quantile(jd / d, level, method="lower") / on)
            report = verify_certificate(model, box, tight, seed=seed + 1)
            return _float_hex(cert), report.violations

        got = outputs()
        with mock.patch.object(gallery, "_spectral_norms", _lapack_norms):
            want = outputs()
        assert got == want

    LEVEL = st.one_of(st.just(1.0), st.floats(0.0, 1.0))

    @settings(max_examples=8, deadline=None)
    @given(times=st.lists(st.integers(0, 40), min_size=2, max_size=5, unique=True),
           seed=st.integers(0, 2**16), level=LEVEL)
    def test_exp_decay_oracle_matches_lapack(self, times, seed, level):
        box = CompactBox(np.array([0.5, 0.5]), np.array([1.5, 1.5]))
        model = _exp_decay_model(0.1 * np.array(times, dtype=float), box)
        self._assert_oracle_matches_lapack(model, box, seed, level)

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(1, 3), eta=st.floats(0.05, 0.9),
           seed=st.integers(0, 2**16), level=LEVEL)
    def test_quadratic_oracle_matches_lapack(self, n, eta, seed, level):
        # F(a) - F(b) = (A + eta diag(a + b)) (a - b): an orthogonal A keeps
        # F injective on the box for eta < 1, and unlike A = I it gives J
        # that are not diagonal
        a_mat = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
        box = CompactBox(np.full(n, -0.5), np.full(n, 0.5))
        model = _quadratic_model(a_mat, eta, box)
        self._assert_oracle_matches_lapack(model, box, seed, level)


def _accumulated_spectral_norms(stack):
    """The spectral screen with each Gram entry read off the last row of
    ``np.add.accumulate``: the same products and additions in the same
    order, with every partial sum written out."""
    if stack.shape[1] < stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    cols = np.ascontiguousarray(stack.transpose(2, 1, 0))
    scale = np.abs(cols).reshape(-1, cols.shape[2]).max(axis=0, initial=0.0)
    unit = cols / np.where(scale > 0.0, scale, 1.0)

    def gram(i, j):
        return np.add.accumulate(unit[i] * unit[j], axis=0)[-1]

    n = unit.shape[0]
    if n == 1:
        lam = gram(0, 0)
    elif n == 2:
        a, b, d = gram(0, 0), gram(0, 1), gram(1, 1)
        lam = 0.5 * (a + d) + np.hypot(0.5 * (a - d), b)
    else:
        full = np.empty((unit.shape[2], n, n))
        for i in range(n):
            for j in range(i + 1):
                full[:, i, j] = full[:, j, i] = gram(i, j)
        lam = np.linalg.eigvalsh(full)[:, -1]
    return scale * np.sqrt(lam)


def _listed_pow(values, exponent):
    # Python's pow on every entry, exponent 1 included
    return np.array([v ** exponent for v in values.tolist()])


class TestKernelKeepsItsBits:
    """The spectral screen against the Gram entries of
    ``np.add.accumulate`` it replaced, Python's pow on every entry at
    exponent 1, and the pair kernel on a box of one point."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), k=st.integers(1, 4), m=st.integers(1, 4),
           n=st.integers(1, 4), exponent=st.integers(-300, 300),
           zero=st.booleans(), deficient=st.booleans())
    def test_screen_matches_accumulated_gram(self, data, k, m, n, exponent,
                                             zero, deficient):
        # entries of one stack share a magnitude, so that sums in another
        # order round differently; across stacks they span 1e-300 to 1e300
        stack = data.draw(arrays(np.float64, (k, m, n),
                                 elements=st.floats(-1.0, 1.0))) * 10.0**exponent
        if deficient:  # a repeated column (or row) drops the rank
            if n > 1:
                stack[:, :, -1] = stack[:, :, 0]
            elif m > 1:
                stack[:, -1] = stack[:, 0]
        if zero:
            stack[0] = 0.0
        got = _spectral_norms(stack)
        assert got.tobytes() == _accumulated_spectral_norms(stack).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(min_value=0.0, exclude_min=True,
                                     allow_infinity=False, allow_subnormal=True),
                           min_size=1, max_size=40))
    def test_pow_at_exponent_one_keeps_every_bit(self, values):
        tiny = [5e-324, 2.225073858507201e-308, 1e-310, 1.7976931348623157e308]
        arr = np.array(values + tiny)
        assert gallery._pow(arr, 1.0).tobytes() == _listed_pow(arr, 1.0).tobytes()
        assert gallery._pow(arr, 0.75).tobytes() == _listed_pow(arr, 0.75).tobytes()

    def test_one_point_box_has_no_pair_apart(self, gallery_problems):
        # every pair coincides, so each block is indexed down to no pair;
        # the replaced kernel failed here, screening an empty stack
        model = gallery_problems["exp-decay"].model
        point = CompactBox(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        pa, pb = _pair_arrays(point, 10000, 7)
        jac, d, jd, fd = _pair_quantities(model, pa, pb)
        assert d.shape == jd.shape == fd.shape == (0,)
        stack = jacobian_stack(model, pa[:1])
        assert np.all(jac == _accumulated_spectral_norms(stack)[0])
        report = verify_certificate(model, point,
                                    gallery_problems["exp-decay"].certificate)
        assert report.ok
        assert set(report.violations.values()) == {0}


class TestClosedFormBounds:
    """Raw oracle maxima against closed forms for F(x) = x + eta * x**2.

    Re-verification shares the pair kernel with estimation, so it cannot
    catch a fault in that kernel; these bounds come from the model alone.  On
    [-1/2, 1/2]^n: J(x) = I + 2 eta diag(x), so ||J(x)|| <= 1 + eta and
    Lip(J) = 2 eta, and F(a) - F(b) = (I + eta diag(a + b)) (a - b) gives
    (1 - eta) ||a - b|| <= ||F(a) - F(b)|| <= (1 + eta) ||a - b||.
    """

    @pytest.mark.parametrize("pid, eta", [("quadratic-2d", 0.25),
                                          ("quadratic-3d", 0.2)])
    def test_raw_maxima_within_closed_forms(self, pid, eta, gallery_problems):
        cert = gallery_problems[pid].certificate
        bounds = {
            "jac_bound": 1.0 + eta,
            "lip_deriv": 2.0 * eta,
            "forward_lip": 1.0 + eta,
            "holder_const": 1.0 / (math.sqrt(2.0) * (1.0 - eta)),
            "recon_const": 1.0 / (2.0 * (1.0 - eta)),
        }
        raw = {name: getattr(cert, name) / INFLATION for name in bounds}
        for name, bound in bounds.items():
            assert raw[name] <= bound * (1.0 + 1e-12), name
        # The coarse grid holds the box corners and axis-aligned pairs, where
        # the first two bounds are attained.
        assert raw["jac_bound"] >= bounds["jac_bound"] * (1.0 - 1e-12)
        assert raw["lip_deriv"] >= bounds["lip_deriv"] * (1.0 - 1e-12)


class TestScalarLinear:
    def test_holder_estimate_with_equality(self):
        prob = scalar_linear(2.0, 0.5)
        c_f = prob.certificate.holder_const
        # (1/sqrt 2)|d| <= C_F * |2d| holds with equality for C_F = 1/(2 sqrt 2)
        assert abs(c_f - 1.0 / (2.0 * math.sqrt(2.0))) <= 1e-15
        d = 0.37
        assert d / math.sqrt(2.0) <= c_f * (2.0 * d) * (1.0 + 1e-12)

    def test_rejects_zero_slope(self):
        with pytest.raises(ValueError):
            scalar_linear(0.0, 0.5)


class TestExpDecay:
    def test_zero_decay_rate_is_constant(self):
        prob = exp_decay((0.0, 1.0, 2.0), (1.0, 1.0))
        out = apply_forward(prob.model, [1.0, 0.0])
        assert np.allclose(out, 1.0, rtol=0, atol=0)

    def test_closed_form_value(self):
        prob = exp_decay((0.0, 1.0), (1.0, 1.0))
        assert np.allclose(prob.y_exact, [1.0, math.exp(-1.0)])

    def test_jacobian_row_matches_finite_differences(self):
        prob = exp_decay((0.0, 1.0), (1.0, 1.0))
        x = np.array([1.0, 1.0])
        jac = jacobian_matrix(prob.model, x)
        assert np.allclose(jac[1], [math.exp(-1.0), -math.exp(-1.0)],
                           rtol=0, atol=1e-15)
        fd = finite_difference_jacobian(prob.model, x)
        assert np.max(np.abs(fd - jac)) <= 1e-6

    def test_needs_two_distinct_times(self):
        with pytest.raises(ValueError):
            exp_decay((1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            exp_decay((1.0,), (1.0, 1.0))


class TestQuadraticPerturbation:
    def test_eta_zero_reduces_to_linear(self):
        prob = quadratic_perturbation(np.diag([1.0, 2.0]), 0.0)
        # smallest singular value 1 -> raw C_F = 1/sqrt(2), inflated by 1.05
        assert abs(prob.certificate.holder_const
                   - 1.05 / math.sqrt(2.0)) <= 5e-3
        assert prob.certificate.lip_deriv < 1e-12

    def test_lipschitz_witness_value(self):
        prob = quadratic_perturbation(np.eye(2), 0.1)
        # sup ||J(x) - J(y)|| / ||x - y|| = 2 eta = 0.2, then 5% inflation
        assert abs(prob.certificate.lip_deriv - 0.21) <= 0.01
        rng = np.random.default_rng(4)
        box = prob.default_box
        for _ in range(300):
            a = box.lower + rng.random(2) * (box.upper - box.lower)
            b = box.lower + rng.random(2) * (box.upper - box.lower)
            lhs = np.linalg.norm(jacobian_matrix(prob.model, a)
                                 - jacobian_matrix(prob.model, b), 2)
            assert lhs <= prob.certificate.lip_deriv * np.linalg.norm(a - b) \
                * (1.0 + 1e-12)

    def test_zero_maps_to_zero(self, gallery_problems):
        prob = gallery_problems["quadratic-2d"]
        assert np.array_equal(
            apply_forward(prob.model, [0.0, 0.0]), [0.0, 0.0]
        )

    def test_large_eta_fails_certification(self):
        with pytest.raises(CertificationFailed):
            quadratic_perturbation(np.eye(2), 5.0)

    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            quadratic_perturbation(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.1)


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_exact_data_reproduced(pid, gallery_problems):
    prob = gallery_problems[pid]
    out = apply_forward(prob.model, prob.x_dagger)
    assert np.max(np.abs(out - prob.y_exact)) <= 1e-14


@pytest.mark.parametrize("pid", GALLERY_IDS)
def test_default_points_inside_ball(pid, gallery_problems):
    prob = gallery_problems[pid]
    from lmrecon.operators import check_domain

    assert check_domain(prob.model, prob.x_dagger)
    assert check_domain(prob.model, prob.default_x0)
    box = prob.default_box
    assert np.all((box.lower <= prob.x_dagger) & (prob.x_dagger <= box.upper))


def test_sabotaged_fixture_fails_adjoint():
    from lmrecon.operators import max_adjoint_defect

    prob = sabotaged_adjoint_fixture()
    defect = max_adjoint_defect(prob.model, [prob.default_x0], samples=20,
                                seed=1)
    assert defect > 1e-3


def test_registry_unknown_id():
    with pytest.raises(KeyError):
        get_problem("no-such-problem")


def test_reverification_catches_understated_certificate():
    import dataclasses

    prob = get_problem("quadratic-2d")
    bad = dataclasses.replace(prob.certificate,
                              jac_bound=prob.certificate.jac_bound / 2.0)
    report = verify_certificate(prob.model, prob.default_box, bad, seed=12)
    assert not report.ok
    assert report.violations["jac_bound"] > 0


class TestCertify:
    def test_estimates_on_the_seed_and_reverifies_on_the_next(self, monkeypatch):
        # the shipped quadratic-2d certificate is certify's on seed 202
        prob = get_problem("quadratic-2d")
        seeds = []

        def recording(model, box, cert, seed=1):
            seeds.append(seed)
            return verify_certificate(model, box, cert, seed)

        monkeypatch.setattr(gallery, "verify_certificate", recording)
        assert certify(prob.model, prob.default_box, 1.0, 202) == prob.certificate
        assert seeds == [203]

    def test_failed_reverification_raises(self, monkeypatch):
        prob = get_problem("quadratic-2d")
        monkeypatch.setattr(gallery, "verify_certificate", lambda *args, **kw:
                            gallery.CertificateReport(False, {"recon": 3}))
        with pytest.raises(CertificationFailed,
                           match=re.escape("re-verification: {'recon': 3}")):
            certify(prob.model, prob.default_box, 0.5, 303)

    def test_underflowing_data_differences_certify(self):
        # F(x) = 1e-305 x separates every pair, though each ||F(a) - F(b)||
        # underflows when squared
        box = CompactBox(np.zeros(1), np.ones(1))
        cert = certify(linear_model([[1e-305]]), box, 1.0, 0)
        constants = [getattr(cert, name) for name in
                     ("jac_bound", "forward_lip", "recon_const", "holder_const")]
        assert all(map(math.isfinite, constants))
        assert cert.recon_const == pytest.approx(INFLATION * 0.5e305, rel=1e-9)

    def test_non_injective_model_raises(self):
        # F(x) = x1 + x2 maps the anti-diagonal of the box to one value
        box = CompactBox(np.zeros(2), np.ones(2))
        with pytest.raises(CertificationFailed, match="not injective on the box"):
            certify(linear_model([[1.0, 1.0]]), box, 1.0, 0)


class TestStackedPairKernel:
    """How the pair kernel, which evaluates J and F once per block on the
    stacked points (a; b), reports a pair or a box it cannot use."""

    def test_degenerate_message_names_a_stacked_pair(self):
        # F(x) = (x1 + x2) is not injective; the first pair coincides and
        # is indexed away, and of the two pairs with F(a) = F(b) the message
        # names the first
        model = linear_model([[1.0, 1.0]])
        pa = np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 0.0]])
        pb = np.array([[0.0, 1.0], [0.5, 0.25], [0.0, 1.0]])
        with pytest.raises(DegenerateModel, match=re.escape(
                "F([0.25 0.5 ]) = F([0.5  0.25]) with distinct arguments")):
            _pair_quantities(model, pa, pb)

    def test_one_point_box_estimate_is_a_typed_error(self, gallery_problems):
        model = gallery_problems["exp-decay"].model
        point = CompactBox(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateModel,
                           match=re.escape("box [[1.0, 1.0], [1.0, 1.0]]")):
            estimate_stability_constants(model, point, eps=1.0)
