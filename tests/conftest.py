import numpy as np
import pytest

from lmrecon.gallery import gallery_ids, get_problem
from lmrecon.operators import ForwardModel, forward_stack, jacobian_matrix, jacobian_stack

GALLERY_IDS = gallery_ids()


def _not_run(config) -> str:
    """The counts of skipped, xfailed and xpassed tests, or ''."""
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    stats = reporter.stats if reporter is not None else {}
    return ", ".join(f"{len(stats[kind])} {kind}"
                     for kind in ("skipped", "xfailed", "xpassed") if stats.get(kind))


def pytest_sessionfinish(session, exitstatus):
    # every test here must run, and pass: a session that would pass but
    # skipped, xfailed or xpassed a test fails
    if exitstatus == pytest.ExitCode.OK and _not_run(session.config):
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if counts := _not_run(config):
        terminalreporter.write_sep("=", f"every test must run and pass: {counts}",
                                   red=True)


@pytest.fixture(scope="session")
def gallery_problems():
    """All shipped problems, built once per session (estimation is sampled)."""
    return {pid: get_problem(pid) for pid in GALLERY_IDS}


def linear_model(matrix, center=None, radius_sq=1e6) -> ForwardModel:
    """F(x) = A x with exact Jacobian and adjoint, for closed-form checks."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    m, n = a.shape
    return ForwardModel(
        dim_x=n, dim_y=m,
        center=np.zeros(n) if center is None else center,
        radius_sq=radius_sq,
        forward=lambda x: a @ x,
        jacobian_apply=lambda x, v: a @ v,
        jacobian_adjoint_apply=lambda x, w: a.T @ w,
    )


def non_finite_model(part: str, value: float = np.nan) -> ForwardModel:
    """F(x) = 2 x, except that ``part`` ("forward", "jacobian_apply" or
    "jacobian_adjoint_apply") returns ``value`` (NaN by default)."""
    calls = {
        "forward": lambda x: 2.0 * x,
        "jacobian_apply": lambda x, v: 2.0 * v,
        "jacobian_adjoint_apply": lambda x, w: 2.0 * w,
    }
    calls[part] = lambda *args: np.full(1, value)
    return ForwardModel(dim_x=1, dim_y=1, center=np.zeros(1), radius_sq=1e6,
                        **calls)


def sample_ball(center, rho_prime, rng, count=1):
    """Uniform points from the ball 0.5*||x - center||^2 <= rho_prime."""
    n = center.shape[0]
    radius = np.sqrt(2.0 * rho_prime)
    out = []
    while len(out) < count:
        z = rng.uniform(-radius, radius, n)
        if float(np.dot(z, z)) <= radius * radius:
            out.append(center + z)
    return out if count > 1 else out[0]


def assert_stacks_match_per_point(model: ForwardModel, xs) -> None:
    """forward_stack / jacobian_stack equal the per-point forward and
    jacobian_matrix exactly (no NaN is involved, so equal values are equal
    bits up to the sign of zero)."""
    assert np.array_equal(forward_stack(model, xs),
                          np.array([model.forward(x) for x in xs]))
    assert np.array_equal(jacobian_stack(model, xs),
                          np.array([jacobian_matrix(model, x) for x in xs]))
