"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each test prints a PASS line on success (run with ``pytest -s`` to see them);
a failed assertion marks the criterion FAIL.  Everything is seeded, so the
suite is deterministic.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import GALLERY_IDS
from lmrecon.checks import monotonicity, omega_condition_holds
from lmrecon.cli import main
from lmrecon.engine import (
    SolverConfig,
    TheoryConstantsExact,
    compute_constants_exact,
    compute_constants_noisy,
    kstar_upper_bound,
    nu_additional_bound,
    qtilde,
    rate_bound,
    run_exact,
    run_noisy,
    tangential_cone_eta,
)
from lmrecon.errors import NoCandidateFound
from lmrecon.gallery import estimate_stability_constants, verify_certificate
from lmrecon.operators import (
    apply_forward,
    finite_difference_jacobian,
    jacobian_matrix,
    max_adjoint_defect,
)
from lmrecon.recon import CompactBox, MeasurementOperator, reconstruct_exact, \
    reconstruct_noisy
from lmrecon.tracefile import read_trace

PRESETS = str(Path(__file__).resolve().parent.parent / "presets")


def _noisy_data(y, delta, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(y.shape[0])
    return y + delta * u / np.linalg.norm(u)


def _exact_gallery_run(prob, q=0.5, max_iters=25, tol_alpha=1e-10):
    cfg = SolverConfig(q=q, max_iters=max_iters, tol_alpha=tol_alpha,
                       domain_mode="warn")
    return run_exact(prob.model, prob.x_dagger, prob.y_exact,
                     prob.default_x0, cfg)


def _report(name):
    print(f"[PASS] {name}")


def test_c01_scalar_closed_form(gallery_problems):
    prob = gallery_problems["scalar-linear"]
    cfg = SolverConfig(q=0.5, max_iters=30, tol_alpha=1e-13)
    trace = run_exact(prob.model, prob.x_dagger, prob.y_exact,
                      np.array([0.0]), cfg)
    assert trace.iterations == 30
    for diag in trace.step_diagnostics:
        assert abs(diag.alpha - 4.0) <= 1e-9
        assert abs(diag.alpha_bound - 4.0) <= 1e-9
        assert diag.alpha <= diag.alpha_bound * (1.0 + 1e-8)
    res = trace.residuals()
    # per-step contraction at exactly q, as a mixed relative/absolute
    # comparison: near x = 0.5 the residual 1 - 2x is quantized in multiples
    # of ~2.2e-16, so a pure ratio test is not resolvable past r ~ 1e-4
    for k in range(30):
        assert abs(res[k + 1] - 0.5 * res[k]) <= 1e-12 * res[k] + 1e-15
    # and the whole trace matches the ideal geometric sequence to 1e-12
    assert np.max(np.abs(res - 2.0 ** -np.arange(31))) <= 1e-12
    _report("criterion 1: scalar closed form (alpha = 4, ratio = q)")


def test_c02_mdp_prime_identity(gallery_problems):
    assert len(GALLERY_IDS) >= 5
    for pid in GALLERY_IDS:
        trace = _exact_gallery_run(gallery_problems[pid])
        assert trace.iterations >= 20, f"{pid} stopped early"
        for diag in trace.step_diagnostics:
            assert diag.mdp_prime_rel_err <= 1e-8, pid
    _report("criterion 2: linearized-residual identity on every gallery run")


def test_c03_error_monotonicity(gallery_problems):
    for pid in GALLERY_IDS:
        prob = gallery_problems[pid]
        trace = _exact_gallery_run(prob)
        assert omega_condition_holds(prob.model, trace, prob.x_dagger, 0.5, 2.0), \
            f"{pid}: omega-condition not verified"
        assert monotonicity(trace.records)[1], pid
    _report("criterion 3: error monotonicity under the verified omega-condition")


def test_c04_exact_rates(gallery_problems):
    prob = gallery_problems["quadratic-2d"]
    trace = _exact_gallery_run(prob, max_iters=50)
    gams = trace.gammas()
    checked = 0
    for eps, cert in [
        (1.0, prob.certificate),
        (0.5, estimate_stability_constants(prob.model, prob.default_box,
                                           eps=0.5, samples=10000, seed=7)),
        (1.0 / 3.0, estimate_stability_constants(prob.model, prob.default_box,
                                                 eps=1.0 / 3.0, samples=10000,
                                                 seed=7)),
    ]:
        tc = compute_constants_exact(cert, 0.5)
        assert gams[0] <= tc.rho, f"entry condition fails at eps={eps}"
        for k, g in enumerate(gams):
            assert g <= rate_bound(k, tc, eps) * (1.0 + 1e-9), (eps, k)
        checked += 1
    assert checked == 3
    _report("criterion 4: exact-data rate bounds at eps = 1, 1/2, 1/3")


def test_c05_noisy_guarantees(gallery_problems):
    prob = gallery_problems["quadratic-2d"]
    deltas = (1e-2, 1e-3, 1e-4)
    errors = []
    for i, delta in enumerate(deltas):
        tc = compute_constants_noisy(prob.certificate, 0.5, 4.0, delta=delta)
        assert abs(tc.R - 0.1875) <= 1e-15
        y_delta = _noisy_data(prob.y_exact, delta, 1000 + i)
        cfg = SolverConfig(q=0.5, max_iters=500, tau=4.0, delta=delta,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, y_delta,
                          prob.default_x0, cfg, tc)
        assert trace.terminal == "discrepancy_stop"
        bound = kstar_upper_bound(tc, prob.certificate, 0.5, 4.0, delta)
        assert trace.k_star <= bound
        assert monotonicity(trace.records)[0]
        errors.append(float(np.linalg.norm(trace.x_final - prob.x_dagger)))
    slope = np.polyfit(np.log10(deltas), np.log10(errors), 1)[0]
    assert slope >= 0.8
    _report(f"criterion 5: noisy-data guarantees (k* bounds, slope {slope:.3f})")


def test_c06_logarithmic_stopping(gallery_problems):
    prob = gallery_problems["quadratic-2d"]
    cert = prob.certificate
    assert cert.holder_eps == 1.0
    assert 0.5 < nu_additional_bound(cert)
    e0 = float(np.linalg.norm(prob.default_x0 - prob.x_dagger))
    qt = qtilde(0.5, cert, e0)
    for delta in (1e-3, 1e-5):
        y_delta = _noisy_data(prob.y_exact, delta, 7)
        cfg = SolverConfig(q=0.5, max_iters=500, tau=4.0, delta=delta,
                           stop_mode="discrepancy")
        trace = run_noisy(prob.model, prob.x_dagger, y_delta,
                          prob.default_x0, cfg)
        res = trace.residuals()
        ratios = res[1:] / res[:-1]
        assert np.all(ratios <= qt + 1e-9)
        log_bound = 1.0 + math.log(res[0] / (4.0 * delta)) / math.log(1.0 / qt)
        assert trace.k_star <= log_bound
    _report(f"criterion 6: logarithmic stopping (q~ = {qt:.4f})")


def test_c07_global_reconstruction(gallery_problems):
    import dataclasses

    prob = gallery_problems["exp-decay"]
    # run-scale constants, as in the shipped reconstruction presets
    cert = dataclasses.replace(prob.certificate, lip_deriv=0.5,
                               holder_const=0.81, recon_const=2.0,
                               provenance="user")
    q_op = MeasurementOperator.identity(prob.model.dim_y)
    box = CompactBox(np.array([0.5, 0.5]), np.array([1.5, 1.5]))
    y_measured = q_op(prob.y_exact)

    x_hat, trace = reconstruct_exact(prob.model, q_op, box, cert, 0.5, 1e-10,
                                     y_measured, x_dagger=prob.x_dagger)
    # the scanned start satisfies the measured-data proximity test
    x0 = trace.recon.x0
    scan_gap = float(np.linalg.norm(q_op(apply_forward(prob.model, x0))
                                    - y_measured))
    assert scan_gap < trace.recon.scan_threshold
    assert np.linalg.norm(x_hat - prob.x_dagger) <= 1e-5

    delta = 1e-3
    y_delta = _noisy_data(y_measured, delta, 55)
    x_noisy, trace_n = reconstruct_noisy(prob.model, q_op, box, cert, 0.5,
                                         4.0, delta, y_delta, 200,
                                         x_dagger=prob.x_dagger)
    assert trace_n.terminal == "discrepancy_stop"
    assert trace_n.k_star is not None
    assert np.linalg.norm(x_noisy - prob.x_dagger) <= 10 * delta

    bad_box = CompactBox(np.array([0.5, 1.0]), np.array([1.0, 1.5]))
    with pytest.raises(NoCandidateFound):
        reconstruct_exact(prob.model, q_op, bad_box, cert, 0.5, 1e-10,
                          y_measured)
    _report("criterion 7: global reconstruction on K = [0.5, 1.5]^2")


def test_c07_armed_reconstruction_presets(tmp_path):
    # quadratic-2d's shipped certificate, with no constants_override, arms
    # both reconstructions; each trace then meets the paper's bound
    runs = {}
    for preset in ("c07c_reconstruct_exact_armed", "c07d_reconstruct_noisy_armed"):
        out = tmp_path / f"{preset}.trace"
        assert main(["reconstruct", "--config", f"{PRESETS}/{preset}.yaml",
                     "--output", str(out)]) == 0
        tf = read_trace(out)
        header = dict(tf.header)
        assert header["hypothesis.armed"] == "true", preset
        runs[preset] = tf, header

    tf, header = runs["c07c_reconstruct_exact_armed"]
    tc = TheoryConstantsExact(rho=float(header["constants.rho"]),
                              c=float(header["constants.c"]),
                              q_condition_ok=True, rho_lt_rho_prime=True)
    eps = float(header["certificate.holder_eps"])
    for rec in tf.rows:
        assert rec.gamma <= rate_bound(rec.k, tc, eps), rec.k
    tf, header = runs["c07d_reconstruct_noisy_armed"]
    assert tf.k_star is not None
    assert tf.k_star <= int(header["constants.kstar_bound"])
    _report("criterion 7: armed reconstructions on quadratic-2d meet their bounds")


def test_c08_oracle_suites(gallery_problems):
    rng = np.random.default_rng(21)
    for pid in GALLERY_IDS:
        prob = gallery_problems[pid]
        model = prob.model
        points = [prob.default_x0, prob.x_dagger, model.center]
        assert max_adjoint_defect(model, points, samples=100, seed=31) <= 1e-10
        for p in points:
            jac = jacobian_matrix(model, p)
            fd = finite_difference_jacobian(model, p)
            assert (np.linalg.norm(fd - jac)
                    <= 1e-5 * (1.0 + np.linalg.norm(jac))), pid
        report = verify_certificate(model, prob.default_box, prob.certificate,
                                    seed=int(rng.integers(10**6)))
        assert report.ok, (pid, report.violations)
    _report("criterion 8: adjoint, finite-difference, and certificate suites")


def test_c09_tangential_cone(gallery_problems):
    for pid, rho_tc in (("quadratic-2d", None), ("exp-decay", 1.5e-3)):
        prob = gallery_problems[pid]
        cert = prob.certificate
        rho_prime = cert.domain_rho_prime if rho_tc is None else rho_tc
        eta = tangential_cone_eta(cert, rho_prime)
        assert eta < 1.0, (pid, eta)
        model = prob.model
        rad = math.sqrt(2.0 * rho_prime)
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 10**4:
            z = rng.uniform(-rad, rad, (2, model.dim_x))
            if np.any(np.sum(z * z, axis=1) > rad * rad):
                continue
            x_a = model.center + z[0]
            x_b = model.center + z[1]
            fa = apply_forward(model, x_a)
            fb = apply_forward(model, x_b)
            rhs = eta * float(np.linalg.norm(fa - fb))
            lhs = float(np.linalg.norm(
                fa - fb - jacobian_matrix(model, x_a) @ (x_a - x_b)))
            if rhs == 0.0:
                assert lhs == 0.0
                continue
            assert lhs <= rhs, (pid, lhs, rhs)
            checked += 1
    _report("criterion 9: tangential cone condition with derived eta < 1")


def test_c10_comparison_report(tmp_path):
    for preset in ("c10a_compare_quadratic", "c10b_compare_expdecay"):
        out = tmp_path / f"{preset}.table"
        code = main(["compare", "--config", f"{PRESETS}/{preset}.yaml",
                     "--output", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        header = rows[0]
        by_method = {r[0]: r for r in rows[1:]}
        idx = header.index("iters_to_1e-8")
        lm = int(by_method["lm"][idx])
        lw = int(by_method["landweber"][idx])
        assert lm < lw, preset
    _report("criterion 10: LM beats the gradient baseline to 1e-8")


def test_c11_determinism(tmp_path):
    blobs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / f"{name}.trace"
        code = main(["reconstruct", "--config",
                     f"{PRESETS}/c11_determinism.yaml",
                     "--output", str(out)])
        assert code == 0
        blobs.append(out.read_bytes().replace(str(out).encode(), b"OUT"))
    assert blobs[0] == blobs[1] == blobs[2]
    _report("criterion 11: byte-identical traces across reruns")
