import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import non_finite_model
from lmrecon import cli, gallery
from lmrecon import config as cfgmod
from lmrecon.cli import main
from lmrecon.engine import SolverConfig, TraceRecord, run_exact
from lmrecon.errors import ConfigInvalid
from lmrecon.gallery import get_problem
from lmrecon.operators import jacobian_matrix
from lmrecon.tracefile import TraceFile, dumps, loads, read_trace

PRESETS = str(Path(__file__).resolve().parent.parent / "presets")


def write_config(tmp_path, name="cfg.yaml", **overrides):
    import yaml

    base = {
        "problem_id": "scalar-linear",
        "mode": "exact",
        "q": 0.5,
        "max_iters": 20,
        "output_path": str(tmp_path / "out.trace"),
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump({k: v for k, v in base.items() if v is not None},
                                   sort_keys=False))
    return path


# Valid values for the keys that only some modes read.
VALUES = {"tau": 4.0, "delta": 1e-3, "max_iters": 20, "target_gamma": 1e-10,
          "x0": [1.0, 1.0], "step_scale": 0.1}
# Keys a mode does not read, other than box and measurement outside the
# reconstruct modes; landweber reads tau and delta only together, so either
# one alone is rejected there.
UNREAD = {
    "exact": ("tau", "delta"),
    "noisy": ("target_gamma",),
    "reconstruct_exact": ("max_iters", "tau", "delta", "x0", "step_scale"),
    "reconstruct_noisy": ("target_gamma", "x0", "step_scale"),
    "landweber": ("target_gamma", "tau", "delta"),
    "verify": ("target_gamma", "x0", "step_scale"),
}


def mode_config(tmp_path, mode, **extra):
    """Config for exp-decay in ``mode`` with its required keys and ``extra``."""
    required = {key: VALUES[key] for key in cfgmod.MODE_KEYS[mode][0]}
    return write_config(tmp_path, problem_id="exp-decay", mode=mode,
                        **{"max_iters": None, **required, **extra})


class TestConfig:
    def test_round_trip(self):
        cfg = cfgmod.parse_text(
            "problem_id: exp-decay\nmode: reconstruct_noisy\nq: 0.5\ntau: 4.0\n"
            "delta: 1.0e-3\nmax_iters: 50\noutput_path: out.trace\n"
            "box: {lower: [0.5, 0.5], upper: [1.5, 1.5]}\n"
            "constants_override: {lip_deriv: 0.5}\n"
        )
        assert cfgmod.parse_text(cfgmod.serialize(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="unknown config keys"):
            cfgmod.parse_text(
                "problem_id: x\nmode: exact\nq: 0.5\nmax_iters: 1\n"
                "output_path: o\nbogus: 1\n"
            )

    def test_q_range_message_names_constraint(self):
        with pytest.raises(ConfigInvalid, match=r"0 < q < 1"):
            cfgmod.parse_text(
                "problem_id: x\nmode: exact\nq: 1.5\nmax_iters: 1\n"
                "output_path: o\n"
            )

    def test_mode_requirements(self):
        with pytest.raises(ConfigInvalid, match="required for mode 'noisy'"):
            cfgmod.parse_text(
                "problem_id: x\nmode: noisy\nq: 0.5\noutput_path: o\n"
                "max_iters: 5\ntau: 4.0\n"
            )

    @pytest.mark.parametrize("mode", ["exact", "noisy", "landweber", "verify"])
    @pytest.mark.parametrize("field, value", [
        ("box", {"lower": [0.5, 0.5], "upper": [1.5, 1.5]}),
        ("measurement", "average"),
    ])
    def test_reconstruct_only_keys_rejected(self, tmp_path, capsys, mode, field, value):
        path = mode_config(tmp_path, mode, **{field: value})
        with pytest.raises(ConfigInvalid, match=f"'{field}'.*'{mode}'"):
            cfgmod.load_config(path)
        assert main(["solve", "--config", str(path)]) == 1
        assert f"config field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, field", [
        (mode, field) for mode, fields in UNREAD.items() for field in fields])
    def test_unread_keys_rejected(self, tmp_path, capsys, mode, field):
        self.test_reconstruct_only_keys_rejected(tmp_path, capsys, mode, field,
                                                 VALUES[field])

    def test_bad_yaml(self):
        with pytest.raises(ConfigInvalid, match="not valid YAML"):
            cfgmod.parse_text("q: [unclosed\n")


class TestTraceFile:
    def trace(self):
        prob = get_problem("scalar-linear")
        cfg = SolverConfig(q=0.5, max_iters=8)
        return run_exact(prob.model, prob.x_dagger, prob.y_exact,
                         np.array([0.0]), cfg)

    def test_round_trip_identity(self):
        tf = TraceFile.from_trace(self.trace(), {"config.q": 0.5,
                                                 "note": "hello"})
        assert loads(dumps(tf)) == tf

    def test_row_count(self):
        tf = TraceFile.from_trace(self.trace(), {})
        assert len(tf.rows) == 8 + 1
        assert tf.rows[0].alpha is None
        assert tf.rows[1].alpha is not None

    def test_seventeen_digit_floats_reparse_exactly(self):
        tf = TraceFile.from_trace(self.trace(), {})
        parsed = loads(dumps(tf))
        for a, b in zip(tf.rows, parsed.rows):
            assert a.residual == b.residual
            assert a.gamma == b.gamma


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Footer keys of the trace format; a header line cannot use them.
TRACE_KEYS = ("columns", "terminal", "k_star")


@st.composite
def trace_files(draw):
    """TraceFiles with arbitrary header values (line breaks, surrounding
    blanks and quotes included), finite floats and unset cells; the
    terminal is a single-line token, as the drivers write it."""
    line = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                   max_size=30).map(str.strip)
    key = st.from_regex(r"[a-z][a-z0-9_.]{0,15}", fullmatch=True).filter(
        lambda k: k not in TRACE_KEYS)
    value = st.text(max_size=30) | line | line.map(lambda v: f'"{v}"')
    optional = st.none() | FINITE
    rows = st.lists(st.builds(
        TraceRecord, k=st.integers(0, 10**6), alpha=optional, residual=FINITE,
        gamma=optional, step_norm=optional, mdp_prime_rel_err=optional),
        max_size=20)
    return TraceFile(header=draw(st.lists(st.tuples(key, value), max_size=8)),
                     rows=draw(rows), terminal=draw(line),
                     k_star=draw(st.none() | st.integers(0, 10**6)))


@settings(max_examples=200, deadline=None)
@given(tf=trace_files())
def test_trace_round_trip_is_byte_identical(tf):
    text = dumps(tf)
    assert loads(text) == tf
    assert dumps(loads(text)) == text


@st.composite
def boxes(draw):
    lower = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
    widths = draw(st.lists(st.floats(0.0, 1e6), min_size=len(lower),
                           max_size=len(lower)))
    return {"lower": lower, "upper": [lo + w for lo, w in zip(lower, widths)]}


@st.composite
def run_configs(draw):
    """Every RunConfig that parse accepts, over all modes and fields."""
    mode = draw(st.sampled_from(cfgmod.MODES))
    required, optional = cfgmod.MODE_KEYS[mode]

    def field(name, values):
        # parse rejects a key the mode does not read
        if name in required:
            return draw(values)
        return draw(st.none() | values) if name in optional else None

    taus = st.floats(1.0, exclude_min=True, allow_infinity=False)
    deltas = st.floats(0.0, allow_infinity=False)
    if mode == "landweber":
        # landweber reads tau and delta only together
        tau, delta = draw(st.just((None, None)) | st.tuples(taus, deltas))
    else:
        tau, delta = field("tau", taus), field("delta", deltas)

    matrix = st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(FINITE, min_size=n, max_size=n), min_size=1, max_size=3))
    override = st.fixed_dictionaries({}, optional={
        **{name: FINITE for name in cfgmod.CERT_FIELDS if name != "provenance"},
        "provenance": st.sampled_from(("user", "oracle-estimated")),
    })
    return cfgmod.RunConfig(
        problem_id=draw(st.text()),
        mode=mode,
        q=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        output_path=draw(st.text()),
        eps=draw(st.floats(0.0, 1.0, exclude_min=True)),
        tau=tau,
        delta=delta,
        max_iters=field("max_iters", st.integers(0, 10**9)),
        target_gamma=field("target_gamma", POSITIVE),
        tol_alpha=draw(POSITIVE),
        box=field("box", boxes()),
        measurement=field(
            "measurement", st.sampled_from(cfgmod.MEASUREMENT_PRESETS) | matrix),
        noise_seed=draw(st.integers(-2**63, 2**63 - 1)),
        constants_override=field("constants_override", override),
        x0=field("x0", st.lists(FINITE, min_size=1, max_size=4)),
        step_scale=field("step_scale", POSITIVE),
    )


@settings(max_examples=200, deadline=None)
@given(cfg=run_configs())
def test_config_round_trip(cfg):
    assert cfgmod.parse_text(cfgmod.serialize(cfg)) == cfg


class TestSolveCommand:
    def test_scalar_preset_trace(self, tmp_path):
        out = tmp_path / "c01.trace"
        code = main(["solve", "--config", f"{PRESETS}/c01_scalar_closed_form.yaml",
                     "--output", str(out)])
        assert code == 0
        tf = read_trace(out)
        assert len(tf.rows) == 31
        residuals = np.array([r.residual for r in tf.rows])
        assert np.max(np.abs(residuals - 2.0 ** -np.arange(31))) <= 1e-12
        assert tf.terminal == "budget_exhausted"

    def test_noisy_kstar_zero(self, tmp_path):
        # tau*delta above the initial residual: no steps taken
        path = write_config(tmp_path, mode="noisy", tau=4.0, delta=1.0,
                            max_iters=10)
        code = main(["solve", "--config", str(path)])
        assert code == 0
        tf = read_trace(tmp_path / "out.trace")
        assert len(tf.rows) == 1
        assert tf.k_star == 0
        assert tf.terminal == "discrepancy_stop"

    def test_malformed_q_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, q=1.5)
        code = main(["solve", "--config", str(path)])
        assert code == 1
        assert "0 < q < 1" in capsys.readouterr().err

    def test_missing_config_exits_one(self):
        assert main(["solve", "--config", "/does/not/exist.yaml"]) == 1

    def test_budget_before_discrepancy_exits_two(self, tmp_path):
        path = write_config(tmp_path, mode="noisy", tau=4.0, delta=1e-9,
                            max_iters=1)
        code = main(["solve", "--config", str(path)])
        assert code == 2

    def test_non_finite_model_output_exits_two(self, tmp_path, monkeypatch,
                                               capsys):
        prob = get_problem("scalar-linear")
        broken = dataclasses.replace(prob, model=non_finite_model("forward"))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        code = main(["solve", "--config", str(write_config(tmp_path))])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_x0_dimension_mismatch_exits_one(self, tmp_path, capsys, command):
        path = write_config(tmp_path, x0=[0.0, 0.0])
        assert main([command, "--config", str(path)]) == 1
        assert "config field 'x0'" in capsys.readouterr().err

    def test_threads_option_is_gone(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", "--config", str(write_config(tmp_path)),
                  "--threads", "2"])

    def test_landweber_mode(self, tmp_path):
        path = write_config(tmp_path, mode="landweber", max_iters=10,
                            step_scale=0.1)
        code = main(["solve", "--config", str(path)])
        assert code == 0
        tf = read_trace(tmp_path / "out.trace")
        assert all(r.alpha is None for r in tf.rows)


class TestReconstructCommand:
    def test_exact_preset(self, tmp_path, capsys):
        out = tmp_path / "c07a.trace"
        code = main(["reconstruct", "--config",
                     f"{PRESETS}/c07a_reconstruct_exact.yaml",
                     "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "lattice=" in captured
        tf = read_trace(out)
        header = dict(tf.header)
        assert float(header["result.x_final"].split()[0]) == pytest.approx(1.2, abs=1e-5)

    def test_box_excluding_truth_exits_four(self, tmp_path):
        path = write_config(
            tmp_path, problem_id="exp-decay", mode="reconstruct_exact",
            max_iters=None, target_gamma=1e-10, measurement="identity",
            box={"lower": [0.5, 1.0], "upper": [1.0, 1.5]},
            constants_override={"lip_deriv": 0.5, "holder_const": 0.81,
                                "recon_const": 2.0},
        )
        code = main(["reconstruct", "--config", str(path)])
        assert code == 4

    def test_box_dimension_mismatch_exits_one(self, tmp_path, capsys):
        path = write_config(
            tmp_path, problem_id="quadratic-2d", mode="reconstruct_exact",
            max_iters=None, target_gamma=1e-10,
            box={"lower": [-0.5, -0.5, -0.5], "upper": [0.5, 0.5, 0.5]},
        )
        assert main(["reconstruct", "--config", str(path)]) == 1
        assert "config field 'box'" in capsys.readouterr().err

    def _measured_header(self, tmp_path, **overrides):
        path = write_config(
            tmp_path, problem_id="quadratic-2d", mode="reconstruct_exact",
            max_iters=None, target_gamma=1e-10, **overrides,
        )
        assert main(["reconstruct", "--config", str(path)]) == 0
        return dict(read_trace(tmp_path / "out.trace").header)

    def test_non_identity_measurement_runs_on_user_constants(self, tmp_path):
        # the oracle certified F, not Q o F: no guarantee may arm, unless an
        # override states the provenance
        header = self._measured_header(tmp_path, measurement="first-coordinate")
        assert header["certificate.provenance"] == "user"
        assert header["hypothesis.armed"] == "false"
        header = self._measured_header(tmp_path, measurement="identity")
        assert header["certificate.provenance"] == "oracle-estimated"
        assert header["hypothesis.armed"] == "true"
        header = self._measured_header(
            tmp_path, measurement="first-coordinate",
            constants_override={"provenance": "oracle-estimated"})
        assert header["certificate.provenance"] == "oracle-estimated"


class TestVerifyCommand:
    def test_tangential_cone_sampler_matches_single_draws(self, monkeypatch,
                                                          gallery_problems):
        # the blocked sampler visits the pairs of one (2, n) draw at a time
        monkeypatch.setattr(cli, "VERIFY_SAMPLES", 2500)
        model = gallery_problems["exp-decay"].model
        eta, rad = 0.3, 0.2
        rng = np.random.default_rng(17)
        worst, checked = 0.0, 0
        while checked < 2500:
            z = rng.uniform(-rad, rad, (2, model.dim_x))
            if np.any(np.sum(z * z, axis=1) > rad * rad):
                continue
            x_a, x_b = model.center + z[0], model.center + z[1]
            fa, fb = model.forward(x_a), model.forward(x_b)
            rhs = eta * float(np.linalg.norm(fa - fb))
            if rhs == 0.0:
                continue
            lhs = float(np.linalg.norm(fa - fb - jacobian_matrix(model, x_a) @ (x_a - x_b)))
            worst = max(worst, lhs / rhs)
            checked += 1
        assert cli._tangential_cone_worst(model, eta, rad) == worst

    def test_quadratic_all_pass(self, tmp_path, capsys):
        out = tmp_path / "c04.report"
        code = main(["verify", "--config", f"{PRESETS}/c04_exact_rates.yaml",
                     "--output", str(out)])
        assert code == 0
        report = out.read_text()
        assert "FAIL" not in report
        assert "rate-bound-exact" in report
        assert "PASS" in report

    def test_scalar_residual_ratio_row(self, tmp_path):
        path = write_config(tmp_path, mode="verify",
                            output_path=str(tmp_path / "v.report"))
        code = main(["verify", "--config", str(path)])
        assert code == 0
        report = (tmp_path / "v.report").read_text()
        assert "residual-ratio-q" in report
        line = [ln for ln in report.splitlines()
                if ln.startswith("residual-ratio-q")][0]
        assert "PASS" in line

    def test_sabotaged_adjoint_fails_with_exit_five(self, tmp_path):
        out = tmp_path / "fault.report"
        code = main(["verify", "--config",
                     f"{PRESETS}/fault_sabotaged_adjoint.yaml",
                     "--output", str(out)])
        assert code == 5
        report = out.read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("adjoint-consistency")][0]
        assert "FAIL" in line

    def test_holder_exponent_verify(self, tmp_path):
        # eps below 1 re-estimates the certificate and arms the Hoelder-rate
        # bound instead of the Lipschitz one
        path = write_config(tmp_path, mode="verify", problem_id="quadratic-2d",
                            eps=0.5, output_path=str(tmp_path / "h.report"))
        code = main(["verify", "--config", str(path)])
        assert code == 0
        report = (tmp_path / "h.report").read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("rate-bound-exact")][0]
        assert "PASS" in line

    def test_hypothesis_gating_not_armed(self, tmp_path):
        # understated ball parameter kills rho < rho'; rate rows must not arm,
        # and the command still exits 0
        path = write_config(
            tmp_path, mode="verify", problem_id="quadratic-2d",
            output_path=str(tmp_path / "gate.report"),
            constants_override={"domain_rho_prime": 1e-06},
        )
        code = main(["verify", "--config", str(path)])
        assert code == 0
        report = (tmp_path / "gate.report").read_text()
        line = [ln for ln in report.splitlines()
                if ln.startswith("rate-bound-exact")][0]
        assert "NOT ARMED" in line


class TestCompareCommand:
    def test_lm_beats_landweber_on_presets(self, tmp_path):
        for preset in ("c10a_compare_quadratic", "c10b_compare_expdecay"):
            out = tmp_path / f"{preset}.table"
            code = main(["compare", "--config", f"{PRESETS}/{preset}.yaml",
                         "--output", str(out)])
            assert code == 0
            rows = [ln.split(",") for ln in out.read_text().splitlines()
                    if ln and not ln.startswith("#")]
            header, lm, lw = rows[0], rows[1], rows[2]
            idx = header.index("iters_to_1e-8")
            assert int(lm[idx]) < int(lw[idx])

    def test_table_is_deterministic(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"table{i}.txt"
            main(["compare", "--config", f"{PRESETS}/c10a_compare_quadratic.yaml",
                  "--output", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestDeterminism:
    def test_trace_bytes_identical_across_runs(self, tmp_path):
        blobs = []
        for name in ("a", "b", "c"):
            out = tmp_path / f"{name}.trace"
            code = main(["reconstruct", "--config",
                         f"{PRESETS}/c11_determinism.yaml",
                         "--output", str(out)])
            assert code == 0
            text = out.read_bytes()
            # normalize the echoed output path, which legitimately differs
            blobs.append(text.replace(str(out).encode(), b"OUT"))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_solve_trace_bytes_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.trace"
            main(["solve", "--config", f"{PRESETS}/c05_noisy_guarantees.yaml",
                  "--output", str(out)])
            blobs.append(out.read_bytes().replace(str(out).encode(), b"OUT"))
        assert blobs[0] == blobs[1]
