import contextlib
import dataclasses
import hashlib
import io
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_model, non_finite_model
from lmrecon import checks, cli, gallery, recon
from lmrecon import config as cfgmod
from lmrecon.cli import main
from lmrecon.engine import SolverConfig, TraceRecord, run_exact
from lmrecon.errors import ConfigInvalid, NonFiniteOutput
from lmrecon.gallery import gallery_ids, get_problem
from lmrecon.operators import STACK_BLOCK, forward_stack, row_norms
from lmrecon.operators import ForwardModel, jacobian_matrix, jacobian_norms
from lmrecon.tracefile import COLUMNS, TraceFile, dumps, loads, read_trace

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
          "x0": [1.0, 1.0], "step_scale": 0.1,
          "constants_override": {"lip_deriv": 0.5}}
# Keys a mode does not read, other than box and measurement outside the
# reconstruct modes; landweber reads tau and delta only together, so either
# one alone is rejected there.
UNREAD = {
    "exact": ("tau", "delta"),
    "noisy": ("target_gamma",),
    "reconstruct_exact": ("max_iters", "tau", "delta", "x0", "step_scale"),
    "reconstruct_noisy": ("target_gamma", "x0", "step_scale"),
    "landweber": ("target_gamma", "tau", "delta", "constants_override"),
    "verify": ("target_gamma", "x0", "step_scale"),
}

# Non-default values for the keys that some command never reads.
UNREAD_BY_COMMAND = {"step_scale": 0.1, "eps": 0.5, "target_gamma": 1e-10,
                     "constants_override": {"lip_deriv": 0.5}, "tol_alpha": 0.001,
                     "noise_seed": 5}


def mode_raw(mode, **extra):
    """Config mapping for exp-decay in ``mode`` with its required keys and
    ``extra``."""
    required = {key: VALUES[key] for key in cfgmod.READS[mode][0]}
    return {"problem_id": "exp-decay", "mode": mode, "q": 0.5,
            "output_path": "out.trace", **required, **extra}


def mode_config(tmp_path, mode, **extra):
    """Config file for exp-decay in ``mode`` with its required keys and
    ``extra``."""
    raw = mode_raw(mode, **{"output_path": str(tmp_path / "out.trace"), **extra})
    return write_config(tmp_path, **{"max_iters": None, **raw})


def modes_of(command):
    """The modes ``command`` runs, as config.READS lists them."""
    return [mode for mode, (_, reads) in cfgmod.READS.items() if command in reads]


def unread_by_command():
    """``(command, mode, key)`` for each key that parse accepts in the mode,
    or that always holds a value, but that the command does not read there."""
    for mode, (required, reads) in cfgmod.READS.items():
        accepted = set(required).union(*reads.values())
        for command, keys in reads.items():
            for key, default in cfgmod.DEFAULTS.items():
                if key not in required + keys and (key in accepted
                                                   or default is not None):
                    yield command, mode, key


def parse_outcome(raw):
    """The RunConfig that parse builds from ``raw``, or its error message."""
    try:
        return cfgmod.parse(raw)
    except ConfigInvalid as exc:
        return str(exc)


def test_import_leaves_scipy_unloaded():
    # the library runs on numpy alone; scipy is a test dependency only
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import lmrecon; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


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
        ("measurement", "identity"),
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

    @pytest.mark.parametrize("command, mode, field", list(unread_by_command()))
    def test_keys_a_command_does_not_read_rejected(self, tmp_path, capsys,
                                                   command, mode, field):
        path = mode_config(tmp_path, mode, **{field: UNREAD_BY_COMMAND[field]})
        assert main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert (f"config field '{field}': not read by '{command}' "
                f"in mode '{mode}'") in err

    @pytest.mark.parametrize("command, mode", [
        (command, mode) for command, mode, field in unread_by_command()
        if field == "noise_seed"])
    def test_seed_flag_rejected_like_the_config_key(self, tmp_path, capsys,
                                                    command, mode):
        flag = main([command, "--config", str(mode_config(tmp_path, mode)),
                     "--seed", "7"])
        flag_err = capsys.readouterr().err
        key = main([command, "--config",
                    str(mode_config(tmp_path, mode, noise_seed=7))])
        assert flag == key == 1
        assert flag_err == capsys.readouterr().err
        assert "config field 'noise_seed'" in flag_err

    @pytest.mark.parametrize("command, mode", [
        (command, mode) for command in cli._COMMANDS for mode in cfgmod.MODES
        if mode not in modes_of(command)])
    def test_modes_a_command_does_not_run_rejected(self, tmp_path, capsys,
                                                   command, mode):
        assert main([command, "--config", str(mode_config(tmp_path, mode))]) == 1
        assert (f"mode '{mode}' is not handled by '{command}'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("override", [
        {"lip_deriv": -1.0}, {"holder_eps": 2.0}, {"jac_bound": float("nan")}])
    def test_out_of_range_constants_override_is_a_config_error(
            self, tmp_path, capsys, override):
        path = write_config(tmp_path, constants_override=override)
        assert main(["solve", "--config", str(path)]) == 1
        assert ("config error: config field 'constants_override': "
                in capsys.readouterr().err)

    def test_schema_covers_every_command_and_key(self):
        # each command runs some mode and no other command is listed; each
        # key but the four required ones has a check, in field order
        listed = {command for _, reads in cfgmod.READS.values() for command in reads}
        assert listed == set(cli._COMMANDS)
        assert list(cfgmod.DEFAULTS) == list(cfgmod._CHECKS)

    @pytest.mark.parametrize("field, kind", [
        ("eps", "a number"), ("tol_alpha", "a number"), ("noise_seed", "an integer")])
    @pytest.mark.parametrize("mode", cfgmod.MODES)
    def test_null_rejected_where_the_key_has_a_default(self, mode, field, kind):
        assert parse_outcome(mode_raw(mode, **{field: None})) == \
            f"config field '{field}': expected {kind}, got None"

    @pytest.mark.parametrize("field", [
        key for key, default in cfgmod.DEFAULTS.items() if default is None])
    @pytest.mark.parametrize("mode", cfgmod.MODES)
    def test_null_parses_as_if_absent(self, mode, field):
        # a key whose default is None holds no value when null, in a mode
        # that requires it, reads it or rejects it alike
        raw = mode_raw(mode, **{field: None})
        absent = {key: value for key, value in raw.items() if key != field}
        assert parse_outcome(raw) == parse_outcome(absent)
        if field not in cfgmod.READS[mode][0]:
            assert isinstance(parse_outcome(raw), cfgmod.RunConfig)

    def test_unknown_measurement_names_the_presets(self):
        assert parse_outcome(mode_raw("reconstruct_exact", measurement="median")) == (
            "config field 'measurement': unknown preset; use one of "
            "('identity',) or a matrix")

    def test_max_iters_is_capped(self, tmp_path, capsys, monkeypatch):
        # every iterate stays on the trace: a Landweber run with a 10^9
        # budget and a tiny step once ran until it was stopped
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "landweber_run", no_run)
        cap = recon.BUDGET_CAP
        assert parse_outcome(mode_raw("landweber", max_iters=cap)).max_iters == cap
        path = mode_config(tmp_path, "landweber", step_scale=1e-9, max_iters=10**9)
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: config field 'max_iters': must lie in [0, {cap}]\n")

    def test_bad_yaml(self):
        with pytest.raises(ConfigInvalid, match="not valid YAML"):
            cfgmod.parse_text("q: [unclosed\n")

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        # the flag takes the config key's check, and neither reaches numpy
        for flag, key in ((["--seed", "-1"], {}), ([], {"noise_seed": -1})):
            config = mode_config(tmp_path, "noisy", **key)
            assert main(["solve", "--config", str(config), *flag]) == 1
            assert capsys.readouterr().err == \
                "config error: config field 'noise_seed': must be >= 0\n"

    @pytest.mark.parametrize("value", [None, [1, 2], 3, True])
    @pytest.mark.parametrize("key", ["problem_id", "mode", "output_path"])
    def test_required_string_keys_reject_other_types(self, key, value):
        assert parse_outcome({**mode_raw("exact"), key: value}) == \
            f"config field '{key}': expected a string, got {value!r}"

    def test_null_output_path_writes_nothing(self, tmp_path, capsys,
                                             monkeypatch):
        # a null output path once became a file named "None"
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, output_path=None)
        path.write_text(path.read_text() + "output_path: null\n")
        assert main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err == ("config error: config field "
                                           "'output_path': expected a string, "
                                           "got None\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


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

    def test_empty_residual_cell_rejected(self):
        text = dumps(TraceFile.from_trace(self.trace(), {}))
        lines = text.splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("3,"))
        cells = lines[row].split(",")
        cells[COLUMNS.index("residual")] = ""
        lines[row] = ",".join(cells)
        with pytest.raises(ValueError):
            loads("".join(lines))

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
    required, reads = cfgmod.READS[mode]
    optional = set().union(*reads.values())

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
    override = st.fixed_dictionaries(
        {}, optional={name: FINITE for name in cfgmod.CERT_FIELDS})
    return cfgmod.RunConfig(
        problem_id=draw(st.text()),
        mode=mode,
        q=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        output_path=draw(st.text()),
        eps=draw(st.floats(0.0, 1.0, exclude_min=True)),
        tau=tau,
        delta=delta,
        max_iters=field("max_iters", st.integers(0, recon.BUDGET_CAP)),
        target_gamma=field("target_gamma", POSITIVE),
        tol_alpha=draw(POSITIVE),
        box=field("box", boxes()),
        measurement=field(
            "measurement", st.just("identity") | matrix),
        noise_seed=draw(st.integers(0, 2**63 - 1)),
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
        # both drivers: a discrepancy run that ends on its budget failed
        for mode in ("noisy", "landweber"):
            path = write_config(tmp_path, mode=mode, tau=4.0, delta=1e-9,
                                max_iters=1)
            code = main(["solve", "--config", str(path)])
            assert code == 2
            assert read_trace(tmp_path / "out.trace").terminal == "budget_exhausted"

    def test_seed_option_is_recorded_in_the_header(self, tmp_path):
        preset = Path(PRESETS) / "c05_noisy_guarantees.yaml"
        copy = tmp_path / "seed7.yaml"
        copy.write_text(preset.read_text().replace("noise_seed: 1001",
                                                   "noise_seed: 7"))
        blobs = []
        for config, extra in ((str(preset), ["--seed", "7"]), (str(copy), [])):
            out = tmp_path / f"{len(blobs)}.trace"
            assert main(["solve", "--config", config, "--output", str(out),
                         *extra]) == 0
            blobs.append(out.read_bytes().replace(str(out).encode(), b"OUT"))
        assert blobs[0] == blobs[1]
        assert dict(read_trace(tmp_path / "0.trace").header)["config.noise_seed"] == "7"

    def test_one_parser_keeps_no_state_between_calls(self, tmp_path,
                                                     monkeypatch):
        # main parses with the parser built at import; a call without
        # --seed and --output gets the config's values after one with them
        def no_build():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", no_build)
        preset = f"{PRESETS}/c05_noisy_guarantees.yaml"
        flagged = tmp_path / "flagged.trace"
        plain = tmp_path / "plain.trace"
        copy = tmp_path / "plain.yaml"
        copy.write_text(Path(preset).read_text().replace(
            "output_path:", f"output_path: {plain}  #"))
        assert main(["solve", "--config", preset, "--output", str(flagged),
                     "--seed", "7"]) == 0
        assert main(["solve", "--config", str(copy)]) == 0
        header = dict(read_trace(plain).header)
        assert header["config.noise_seed"] == "1001"
        assert header["config.output_path"] == str(plain)
        assert dict(read_trace(flagged).header)["config.noise_seed"] == "7"

    def test_non_finite_model_output_exits_two(self, tmp_path, monkeypatch,
                                               capsys):
        prob = get_problem("scalar-linear")
        broken = dataclasses.replace(prob, model=non_finite_model("forward"))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        code = main(["solve", "--config", str(write_config(tmp_path))])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    def test_underflowing_noise_level_has_no_kstar_bound(self, tmp_path):
        # (tau delta)^2 underflows to 0 at delta = 1e-200; the run still ends
        # with a documented code: the budget runs out before tau * delta
        path = write_config(tmp_path, problem_id="quadratic-2d", mode="noisy",
                            tau=4.0, delta=1e-200)
        assert main(["solve", "--config", str(path)]) == 2
        tf = read_trace(tmp_path / "out.trace")
        assert tf.terminal == "budget_exhausted"
        assert dict(tf.header)["constants.kstar_bound"] == "none"

    @pytest.mark.parametrize("command, overrides, code, message", [
        # q near the smallest float: the Newton step of the shift underflows,
        # or the shift itself does
        ("verify", {"mode": "verify", "q": 5e-324}, 2, "underflows"),
        ("solve", {"problem_id": "quadratic-3d", "mode": "noisy", "q": 5e-324,
                   "tau": 4.0, "delta": 0.0, "tol_alpha": 1000.0,
                   "x0": [-1.5, -1.5, -1.5]}, 2, "underflows to alpha = 0"),
        # ... and rho with it, so no lattice of positive radius covers the box
        ("reconstruct", {"mode": "reconstruct_exact", "q": 5e-324,
                         "target_gamma": 5e-324, "max_iters": None}, 2,
         "infinitely many points"),
        # jac_bound^2 overflows, or underflows to a zero divisor
        ("reconstruct", {"mode": "reconstruct_exact", "target_gamma": 1e-10,
                         "max_iters": None,
                         "constants_override": {"jac_bound": 1e300}}, 3,
         "outside the float range"),
        ("reconstruct", {"mode": "reconstruct_noisy", "tau": 4.0, "delta": 0.0,
                         "constants_override": {"jac_bound": 5e-324}}, 3,
         "outside the float range"),
    ])
    def test_constants_beyond_the_float_range_exit_documented(
            self, tmp_path, capsys, command, overrides, code, message):
        path = write_config(tmp_path, **overrides)
        assert main([command, "--config", str(path)]) == code
        assert message in capsys.readouterr().err

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

    def test_infinite_box_is_too_large_a_lattice(self, tmp_path, capsys):
        path = write_config(
            tmp_path, problem_id="quadratic-2d", mode="reconstruct_exact",
            max_iters=None, target_gamma=1e-10,
            box={"lower": [-0.5, -0.5], "upper": [float("inf"), 0.5]},
        )
        assert main(["reconstruct", "--config", str(path)]) == 2
        assert "infinitely many points" in capsys.readouterr().err

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

    def test_non_identity_measurement_runs_on_user_constants(self, tmp_path,
                                                             capsys):
        # the oracle certified F, not Q o F: no guarantee may arm, and no
        # override may state a provenance
        header = self._measured_header(tmp_path,
                                       measurement=[[1.0, 1.0], [0.0, 1.0]])
        assert header["certificate.provenance"] == "user"
        assert header["hypothesis.armed"] == "false"
        header = self._measured_header(tmp_path, measurement="identity")
        assert header["certificate.provenance"] == "oracle-estimated"
        assert header["hypothesis.armed"] == "true"
        path = write_config(
            tmp_path, problem_id="quadratic-2d", mode="reconstruct_exact",
            max_iters=None, target_gamma=1e-10, measurement=[[1.0, 1.0], [0.0, 1.0]],
            constants_override={"provenance": "oracle-estimated"})
        assert main(["reconstruct", "--config", str(path)]) == 1
        assert "unknown certificate fields ['provenance']" in capsys.readouterr().err

    @pytest.mark.parametrize("measurement, error", [
        ("average", "unknown preset; use one of ('identity',) or a matrix"),
        ("first-coordinate", "unknown preset; use one of ('identity',) or a matrix"),
        ([[1 / 3, 1 / 3, 1 / 3]], "rank 1 is below the 2 unknowns"),
        # rank 1 with two rows: it once ran to an error of 1.9e-01, exit 0
        ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], "rank 1 is below the 2 unknowns"),
    ], ids=["average", "first-coordinate", "one-row", "rank-one"])
    def test_measurement_that_cannot_be_injective_exits_one(
            self, tmp_path, capsys, measurement, error):
        path = write_config(tmp_path, **{**C07A, "measurement": measurement})
        assert main(["reconstruct", "--config", str(path)]) == 1
        assert f"config field 'measurement': {error}" in capsys.readouterr().err

    def test_full_rank_measurement_reconstructs(self, tmp_path, capsys):
        path = write_config(tmp_path, **{**C07A, "measurement": [[1.0, 0.0, 0.0],
                                                               [0.0, 1.0, 0.0]]})
        assert main(["reconstruct", "--config", str(path)]) == 0
        header = dict(read_trace(tmp_path / "out.trace").header)
        assert header["certificate.provenance"] == "user"
        assert float(capsys.readouterr().out.split("final_error=")[1].split()[0]) < 1e-10

    @pytest.mark.parametrize("box, provenance, armed", [
        # the truth is (0.25, -0.2) and the certified box [-0.5, 0.5]^2
        ({"lower": [-0.9, -0.9], "upper": [0.9, 0.9]}, "user", "false"),
        ({"lower": [-0.5, -0.5], "upper": [0.6, 0.5]}, "user", "false"),
        ({"lower": [-0.5, -0.5], "upper": [0.5, 0.5]}, "oracle-estimated", "true"),
        ({"lower": [0.0, -0.5], "upper": [0.5, 0.0]}, "oracle-estimated", "true"),
    ])
    def test_box_outside_the_certified_box_runs_on_user_constants(
            self, tmp_path, box, provenance, armed):
        # each constant is a supremum over the certified box: it holds on a
        # sub-box, but not on a box that reaches outside it
        header = self._measured_header(tmp_path, box=box)
        assert header["certificate.provenance"] == provenance
        assert header["hypothesis.armed"] == armed

    def test_budget_above_the_cap_exits_three_before_the_scan(
            self, tmp_path, capsys, monkeypatch):
        # q near 1 takes the rate bound to target_gamma only after some
        # 10^7 steps, each of which the trace would keep
        def no_scan(*args, **kwargs):
            raise AssertionError("the lattice was scanned")

        monkeypatch.setattr(recon, "scan_for_initial_guess", no_scan)
        path = write_config(
            tmp_path, problem_id="exp-decay", mode="reconstruct_exact",
            max_iters=None, q=0.99999, target_gamma=1e-12,
            constants_override={"lip_deriv": 0.5, "holder_const": 0.81,
                                "recon_const": 2.0, "domain_rho_prime": 1.0})
        assert main(["reconstruct", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "hypothesis violated: the rate bound reaches target_gamma = 1e-12 "
            "only after 10685360 iterations (cap 100000)\n")
        assert not (tmp_path / "out.trace").exists()

    def test_identity_matrix_literal_arms(self, tmp_path):
        # the matrix decides whether Q o F is F, not the preset name
        header = self._measured_header(
            tmp_path, measurement=[[1.0, 0.0], [0.0, 1.0]])
        assert header["certificate.provenance"] == "oracle-estimated"
        assert header["hypothesis.armed"] == "true"
        header = self._measured_header(
            tmp_path, measurement=[[0.0, 1.0], [1.0, 0.0]])
        assert header["certificate.provenance"] == "user"
        assert header["hypothesis.armed"] == "false"

    def test_other_exponent_certificate_is_reverified(self, tmp_path, capsys,
                                                      monkeypatch):
        # eps != 1 certifies afresh on seed 303 and re-verifies on seed 304;
        # a violation there ends the run with CertificationFailed, exit 2
        get_problem("quadratic-2d")  # its shipped certificate passes
        seeds = []

        def violated(model, box, cert, seed=1):
            seeds.append(seed)
            return gallery.CertificateReport(False, {"recon": 1})

        monkeypatch.setattr(gallery, "verify_certificate", violated)
        path = write_config(tmp_path, problem_id="quadratic-2d", eps=0.5)
        assert main(["solve", "--config", str(path)]) == 2
        assert seeds == [304]
        assert capsys.readouterr().err == ("error: the certificate failed "
                                           "re-verification: {'recon': 1}\n")


@pytest.mark.parametrize("command, preset, resolutions", [
    ("reconstruct", "c07a_reconstruct_exact", 1),
    ("solve", "c01_scalar_closed_form", 0),
    ("verify", "c04_exact_rates", 0),
    ("compare", "c10a_compare_quadratic", 0),
])
def test_measurement_and_box_resolved_once(command, preset, resolutions, tmp_path,
                                           monkeypatch):
    # the rank SVD of the measurement and the box, each once for the one
    # command whose modes read them, and never for the others
    counts = {"rank": 0, "box": 0}

    def counted(key, fn):
        def call(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "matrix_rank", counted("rank", np.linalg.matrix_rank))
    monkeypatch.setattr(cli, "_resolve_box", counted("box", cli._resolve_box))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", f"{PRESETS}/{preset}.yaml",
                     "--output", str(tmp_path / "out")]) == 0
    assert counts == {"rank": resolutions, "box": resolutions}


# The rows of every verify report, in order.
VERIFY_ROWS = (
    "adjoint-consistency", "jacobian-finite-difference", "mdp-prime-identity",
    "alpha-ceiling", "residual-ratio-q", "error-monotonicity", "gamma-monotone",
    "rate-bound-exact", "discrepancy-soundness", "kstar-bound",
    "gamma-monotone-noisy", "qtilde-contraction", "tangential-cone",
    "certificate-reverification",
)


def report_rows(path):
    """A verify report as {check name: 'STATUS (detail)'}, in file order."""
    return dict(line.split(None, 1) for line in path.read_text().splitlines())


class TestVerifyCommand:
    @staticmethod
    def _poisoned(model, part, value, where):
        """``model`` with F or J (and their batched callables) returning
        ``value`` at the points where ``where(x)`` holds."""
        def point(fn):
            return lambda x, *rest: (np.full_like(fn(x, *rest), value)
                                     if where(x) else fn(x, *rest))

        def stack(fn):
            def call(xs):
                out = fn(xs).copy()
                out[[where(x) for x in xs]] = value
                return out
            return call

        if part == "forward":
            return dataclasses.replace(model, forward=point(model.forward),
                                       forward_batch=stack(model.forward_batch))
        return dataclasses.replace(model,
                                   jacobian_apply=point(model.jacobian_apply),
                                   jacobian_batch=stack(model.jacobian_batch))

    @pytest.mark.parametrize("part", ["forward", "jacobian"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_tangential_cone_non_finite_raises(self, part, value,
                                               gallery_problems):
        # F or J is not finite on the left part of the ball; a NaN ratio
        # would pass rhs != 0 and then drop out of the running maximum
        model = gallery_problems["exp-decay"].model
        broken = self._poisoned(model, part, value, lambda x: x[0] < 0.98)
        with pytest.raises(NonFiniteOutput, match="tangential-cone pair"):
            checks._tangential_cone_worst(broken, 0.3, 0.05)

    def test_non_finite_tangential_cone_exits_two(self, tmp_path, monkeypatch,
                                                  capsys):
        # the runs and the operator checks stay right of x1 = 0.98, inside
        # the tangential-cone ball about (1, 1); a user certificate skips
        # the re-verification, which would meet the NaN on the whole box
        prob = get_problem("exp-decay")
        broken = dataclasses.replace(prob, model=self._poisoned(
            prob.model, "forward", np.nan, lambda x: x[0] < 0.98))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        path = mode_config(tmp_path, "verify",
                           output_path=str(tmp_path / "v.report"),
                           constants_override={"q_norm": 1.0})
        assert main(["verify", "--config", str(path)]) == 2
        assert "forward value at a tangential-cone pair is not finite" in \
            capsys.readouterr().err

    def test_non_finite_adjoint_sample_exits_two(self, tmp_path, monkeypatch,
                                                 capsys):
        # J is NaN at the ball's center, one of the three points the adjoint
        # check samples and a point that no run reaches
        prob = get_problem("exp-decay")
        center = prob.model.center
        broken = dataclasses.replace(prob, model=self._poisoned(
            prob.model, "jacobian", np.nan, lambda x: np.array_equal(x, center)))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        path = mode_config(tmp_path, "verify",
                           output_path=str(tmp_path / "v.report"))
        assert main(["verify", "--config", str(path)]) == 2
        assert "Jacobian action J v is not finite" in capsys.readouterr().err

    def test_non_finite_difference_stencil_exits_two(self, tmp_path,
                                                      monkeypatch, capsys):
        # F is NaN at one point of the central-difference stencil about the
        # ball's center, which nothing else evaluates
        prob = get_problem("exp-decay")
        stencil = prob.model.center + np.array([1e-5, 0.0])
        broken = dataclasses.replace(prob, model=self._poisoned(
            prob.model, "forward", np.nan, lambda x: np.array_equal(x, stencil)))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        path = mode_config(tmp_path, "verify",
                           output_path=str(tmp_path / "v.report"))
        assert main(["verify", "--config", str(path)]) == 2
        assert "finite-difference Jacobian at a verify point is not finite" in \
            capsys.readouterr().err

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

    def test_mdp_prime_tolerance_follows_tol_alpha(self, tmp_path):
        # ||r - J s|| = alpha ||z|| meets q ||r|| only to the root-finder's
        # tolerance, so a loose tol_alpha loosens the identity's bound
        out = tmp_path / "v.report"
        path = write_config(tmp_path, problem_id="quadratic-2d", mode="verify",
                            max_iters=50, tol_alpha=1e-3, output_path=str(out))
        assert main(["verify", "--config", str(path)]) == 0
        assert report_rows(out)["mdp-prime-identity"].startswith("PASS ")

    def test_overflowing_rho_arms_nothing(self, tmp_path):
        # (q / (2 L C_F^2))^(2/eps) overflows a float at eps = 0.05: rho is
        # inf, so rho < rho' fails and no rate is armed
        out = tmp_path / "v.report"
        path = write_config(tmp_path, mode="verify", q=0.65, eps=0.05,
                            output_path=str(out))
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(out)
        assert rows["rate-bound-exact"] == "NOT ARMED (hypothesis failed)"
        assert rows["kstar-bound"] == "NOT ARMED (hypothesis failed)"

    @pytest.mark.parametrize("delta, bound", [
        (1e-200, "no finite bound on the stopping index; "), (1e-16, "")])
    def test_rows_without_a_stopping_index_name_the_cause(self, tmp_path,
                                                          delta, bound):
        # tau * delta lies below the residual floor, so the armed noisy run
        # ends in zero_residual with no stopping index; at 1e-200 the k_star
        # bound is not finite either ((tau delta)^2 underflows)
        out = tmp_path / "v.report"
        path = write_config(tmp_path, mode="verify", problem_id="quadratic-2d",
                            tau=4.0, delta=delta, output_path=str(out))
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(out)
        cause = "run ended in zero_residual before the stopping index"
        assert rows["rate-bound-exact"].startswith("PASS")
        assert rows["discrepancy-soundness"] == f"NOT ARMED ({cause})"
        assert rows["kstar-bound"] == f"NOT ARMED ({bound}{cause})"
        assert rows["gamma-monotone-noisy"] == f"PASS (over all 42 steps; {cause})"
        assert rows["qtilde-contraction"] == f"NOT ARMED ({cause})"

    def test_constants_beyond_the_float_range_arm_nothing(self, tmp_path):
        # jac_bound^2 overflows: verify reports the rate rows unarmed, as for
        # any failed hypothesis, and does not exit 3
        out = tmp_path / "v.report"
        path = write_config(tmp_path, mode="verify", output_path=str(out),
                            constants_override={"jac_bound": 1e300})
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(out)
        assert rows["rate-bound-exact"] == "NOT ARMED (hypothesis failed)"
        assert rows["kstar-bound"] == "NOT ARMED (hypothesis failed)"

    @pytest.mark.parametrize("rho_prime, shown", [(5e-324, "4.941e-324"),
                                                   (float("inf"), "nan")])
    def test_ball_without_usable_pairs_is_not_armed(self, tmp_path, rho_prime,
                                                    shown):
        # at rho' = 5e-324 every sampled ||F(a) - F(b)||^2 underflows to 0, so
        # the sampler stops instead of drawing forever; an infinite ball
        # shrinks to rho' = inf * 0 = NaN for eta < 1, which has no draw at all
        out = tmp_path / "v.report"
        path = write_config(tmp_path, mode="verify", output_path=str(out),
                            constants_override={"domain_rho_prime": rho_prime})
        assert main(["verify", "--config", str(path)]) == 0
        assert report_rows(out)["tangential-cone"] == \
            f"NOT ARMED (no pair with F(a) != F(b) sampled at rho'={shown})"

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


    def test_failed_log_stopping_estimate_is_not_armed(self, tmp_path):
        # a large L puts q~ = (q + s)/(1 - s) above 1: the logarithmic
        # stopping row does not arm, and the command still writes its report
        # and exits 0
        path = write_config(tmp_path, mode="verify", problem_id="quadratic-2d",
                            output_path=str(tmp_path / "q.report"),
                            constants_override={"lip_deriv": 8.0})
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(tmp_path / "q.report")
        assert rows["qtilde-contraction"] == "NOT ARMED (smallness condition not met)"

    def test_no_steps_keeps_every_row(self, tmp_path):
        path = write_config(tmp_path, mode="verify", max_iters=0,
                            output_path=str(tmp_path / "n.report"))
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(tmp_path / "n.report")
        assert tuple(rows) == VERIFY_ROWS
        for name in ("mdp-prime-identity", "alpha-ceiling", "residual-ratio-q",
                     "error-monotonicity", "gamma-monotone"):
            assert rows[name] == "NOT ARMED (no steps taken)"

    def test_no_noisy_steps_is_not_armed(self, tmp_path):
        # the first noisy residual already meets tau * delta = 2
        path = write_config(tmp_path, mode="verify", delta=0.5,
                            output_path=str(tmp_path / "n.report"))
        assert main(["verify", "--config", str(path)]) == 0
        rows = report_rows(tmp_path / "n.report")
        assert rows["discrepancy-soundness"] == "PASS (k_star=0)"
        assert rows["gamma-monotone-noisy"] == "NOT ARMED (no steps taken)"
        # with k_star = 0 no residual ratio is observed
        assert rows["qtilde-contraction"] == "NOT ARMED (no steps taken)"


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

    def test_costs_count_only_solver_work(self, tmp_path):
        # compare runs without the truth: LM's cost leaves out the
        # omega-condition's J(x)(x_dagger - x), and its residuals are those
        # of the run with the truth
        prob = get_problem("quadratic-2d")
        cfg = SolverConfig(q=0.2, max_iters=60)
        runs = []
        for truth in (prob.x_dagger, None):
            model, counts = cli.counting_model(prob.model)
            trace = run_exact(model, truth, prob.y_exact, prob.default_x0, cfg)
            runs.append((trace.residuals(), sum(counts.values()) / trace.iterations))
        assert np.array_equal(runs[0][0], runs[1][0])
        out = tmp_path / "table.txt"
        main(["compare", "--config", f"{PRESETS}/c10a_compare_quadratic.yaml",
              "--output", str(out)])
        lm = out.read_text().splitlines()[2].split(",")
        assert (lm[0], lm[4]) == ("lm", f"{runs[1][1]:.2f}")
        assert runs[0][1] > runs[1][1]

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


# The outputs of solve and compare on one run per stopping rule and driver,
# and of both reconstructions: run -> (command, preset file or config
# overrides, exit code, sha256 of stdout, sha256 of the output file), both
# with the output path replaced by a token.  Recorded with numpy 2.4 and its
# bundled OpenBLAS on x86-64.
PINNED = {
    "c01": (
        "solve", "c01_scalar_closed_form.yaml", 0,
        "2f98e3d13364f84399855c006933a83d12ea1db1399c26c094f8f9d7775584bb",
        "0b6bd1c24db70718b84c52132f8d72d300d42802f7d1bb84e1051b398bf6c056"),
    "c05": (
        "solve", "c05_noisy_guarantees.yaml", 0,
        "83fae8e2dcb2a6cb429c924090237fda5ce46250ff3c0631e7fd9159ab3e44d5",
        "c7c4569b4c3d05a0378746ee9d87be034d05ce1f4062f4537abe606f5a7e6539"),
    "exact-target": (
        "solve", {"problem_id": "quadratic-2d", "target_gamma": 1e-8,
                  "max_iters": 60}, 0,
        "9608b29e667e473afc0af5feba0d2643b861ab28826a670c18fbe6e1ff854cdf",
        "2ab43972922d886914878370502267bab6f91584d3f595d870a01026e383392c"),
    "landweber-default-step": (
        "solve", {"problem_id": "quadratic-2d", "mode": "landweber",
                  "max_iters": 60}, 0,
        "a9c7316288bb8d628fda427d9ebbf6217d9fb58c395744b4d86e55f800d3fa1b",
        "fe7fe350adead3833be0aae98c7e8191895576f0df2a0909b17978e7471525b3"),
    "landweber-discrepancy": (
        "solve", {"problem_id": "quadratic-2d", "mode": "landweber",
                  "max_iters": 200, "step_scale": 0.05, "tau": 4.0,
                  "delta": 1e-3, "noise_seed": 3}, 0,
        "e43fd437bcc9927d2021527ee92b4e19e288c25e7e5a194c37d855914dc97c5e",
        "bbfe53f2e33dbe1a7fafe9c68d9119ab1136595ae6ec450f05221060e0d9892f"),
    "c10a": (
        "compare", "c10a_compare_quadratic.yaml", 0,
        "810b247687bca5dc28e6c0f7caa24aa0abc22420727548e1a259f87eb4670a48",
        "810b247687bca5dc28e6c0f7caa24aa0abc22420727548e1a259f87eb4670a48"),
    "c10b": (
        "compare", "c10b_compare_expdecay.yaml", 0,
        "fc05c33db0c1d327b2b41ddbfd91641122b1c9f1b12c6140ec7b6911a96d4657",
        "fc05c33db0c1d327b2b41ddbfd91641122b1c9f1b12c6140ec7b6911a96d4657"),
    "compare-noisy": (
        "compare", {"problem_id": "quadratic-2d", "mode": "noisy", "q": 0.2,
                    "tau": 4.0, "delta": 1e-3, "max_iters": 200,
                    "noise_seed": 3}, 0,
        "5b7a2c6bb3a88e1bcf8b70c4aa4bfc1c80b4759de72f21926979fd14c52fd75b",
        "5b7a2c6bb3a88e1bcf8b70c4aa4bfc1c80b4759de72f21926979fd14c52fd75b"),
    "c07a": (
        "reconstruct", "c07a_reconstruct_exact.yaml", 0,
        "9c64a97a1b6f6320eebedb56ec9d98440e3473fe1b1d9d7b141a7ee4be55fd2b",
        "e9ddaa16330336a0432bf615cd0973e54ac58569f1d43f13fe252ecc4a2c08b5"),
    "c07b": (
        "reconstruct", "c07b_reconstruct_noisy.yaml", 0,
        "42c4b5dba8a5fc195d7c8969f1d2460fa154cb5c99d48c047369c353ab442212",
        "19aacafa29e2b7ae5510f7b6e8bfc8fcd7ba87e2a05d2b90c153628c934ceb59"),
}


def pinned_run(tmp_path, capsys, command, source):
    """Exit code and the sha256 of stdout and of the output file of one run."""
    config = (f"{PRESETS}/{source}" if isinstance(source, str)
              else str(write_config(tmp_path, **source)))
    out = tmp_path / "pinned.out"
    capsys.readouterr()
    code = main([command, "--config", config, "--output", str(out)])
    token = str(out).encode()
    stdout = capsys.readouterr().out.encode().replace(token, b"OUT")
    return (code, hashlib.sha256(stdout).hexdigest(),
            hashlib.sha256(out.read_bytes().replace(token, b"OUT")).hexdigest())


@pytest.mark.parametrize("run", PINNED)
def test_solve_and_compare_outputs_pinned(tmp_path, capsys, run):
    command, source, *expected = PINNED[run]
    assert pinned_run(tmp_path, capsys, command, source) == tuple(expected)


# The report of every verify preset: preset -> (exit code, sha256 of the
# report, which verify also prints).  Recorded like PINNED.
PINNED_VERIFY = {
    "c02_mdp_prime_identity.yaml": (
        0, "71fd8876d81cab759ba876eb18988aadf0dbfa71f88d2d198dfead2e74682b27"),
    "c03_error_monotonicity.yaml": (
        0, "7491fab9d0d1e484440672efe996ef695655c71600d4d43e467ab8102b7797e7"),
    "c04_exact_rates.yaml": (
        0, "5d6760c256fb665c86c3c006aa672de3d8897401cd5be210d14d8a5dfd4787d3"),
    "c06_log_stopping.yaml": (
        0, "18ffdcbfd172b4221caec435253f556e38df446bd1978e86583707febc8c9370"),
    "c08_oracle_suites.yaml": (
        0, "7491fab9d0d1e484440672efe996ef695655c71600d4d43e467ab8102b7797e7"),
    "c09_tangential_cone.yaml": (
        0, "7491fab9d0d1e484440672efe996ef695655c71600d4d43e467ab8102b7797e7"),
    "fault_sabotaged_adjoint.yaml": (
        5, "6e69f957ce787d55f89926ca705e49d41d9a979ca1bca4cde96fe6318e2dfa81"),
}


@pytest.mark.parametrize("preset", PINNED_VERIFY)
def test_verify_reports_pinned(tmp_path, capsys, preset):
    code, digest = PINNED_VERIFY[preset]
    assert pinned_run(tmp_path, capsys, "verify", preset) == (code, digest, digest)


# A config per command that runs to its output file on quadratic-2d.
WRITING_RUNS = {
    "solve": {"mode": "exact"},
    "reconstruct": {"mode": "reconstruct_exact", "max_iters": None,
                    "target_gamma": 1e-10},
    "verify": {"mode": "verify", "max_iters": None},
    "compare": {"mode": "exact"},
}


@pytest.mark.parametrize("override, named", [
    ({"lip_deriv": 0.4, "provenance": "oracle-estimated"}, ["provenance"]),
    ({"holder_eps": 0.5, "provenance": "oracle-estimated"},
     ["holder_eps", "provenance"]),
])
def test_a_config_cannot_state_trust_or_the_exponent(tmp_path, capsys,
                                                     override, named):
    # lip_deriv 0.4 fails re-verification on quadratic-2d, and holder_eps
    # 0.5 would disagree with eps 1, at which the constants were sampled
    path = write_config(tmp_path, problem_id="quadratic-2d", eps=1.0,
                        constants_override=override)
    assert main(["solve", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"config error: config field 'constants_override': "
        f"unknown certificate fields {named}\n")
    assert not (tmp_path / "out.trace").exists()


@settings(max_examples=15, deadline=None)
@given(scales=st.dictionaries(st.sampled_from(cfgmod.CERT_FIELDS),
                              st.floats(0.5, 1.5), min_size=1))
def test_overridden_constants_arm_nothing(scales):
    # any override, here of the shipped constants by factors that keep the
    # lattice at desk scale, makes a user certificate that arms no guarantee
    # and that verify does not re-verify
    cert = dataclasses.asdict(get_problem("quadratic-2d").certificate)
    override = {name: scale * cert[name] for name, scale in scales.items()}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = Path(tmp) / "out.trace"
        for command in ("solve", "reconstruct", "verify"):
            path = write_config(Path(tmp), problem_id="quadratic-2d",
                                constants_override=override,
                                **WRITING_RUNS[command])
            code = main([command, "--config", str(path)])
            if code in (3, 4):
                # constants that fail a hypothesis of the theory, or whose
                # lattice holds no candidate, end reconstruct with no trace
                assert command == "reconstruct"
                continue
            assert code in (0, 5)
            if command == "verify":
                assert report_rows(out)["certificate-reverification"] == \
                    "NOT ARMED (user-supplied certificate)"
            else:
                header = dict(read_trace(out).header)
                assert header["certificate.provenance"] == "user"
                assert header["hypothesis.armed"] == "false"


C07A = {"problem_id": "exp-decay", "mode": "reconstruct_exact",
        "max_iters": None, "target_gamma": 1e-10,
        "constants_override": {"lip_deriv": 0.5, "holder_const": 0.81,
                               "recon_const": 2.0}}


@pytest.mark.parametrize("command, config, error", [
    # a NaN q_norm once dropped the hit radius, and the scan failed (exit 4)
    ("reconstruct",
     {**C07A, "constants_override": {**C07A["constants_override"],
                                     "q_norm": float("nan")}},
     "config field 'constants_override': q_norm must be non-negative"),
    # a NaN start once failed in the first residual (exit 2)
    ("solve", {"problem_id": "quadratic-2d", "x0": [float("nan"), 0.5]},
     "config field 'x0': expected finite numbers, got [nan, 0.5]"),
    # a NaN measurement entry once failed the scan (exit 4)
    ("reconstruct", {**C07A, "measurement": [[1.0, float("nan")]]},
     "config field 'measurement': expected finite numbers, got [1.0, nan]"),
    # an infinite q_norm once took the hit radius to 0 (exit 2)
    ("reconstruct",
     {**C07A, "constants_override": {**C07A["constants_override"],
                                     "q_norm": float("inf")}},
     "config field 'constants_override': q_norm must be finite"),
], ids=["q_norm", "x0", "measurement", "q_norm_inf"])
def test_non_finite_inputs_are_config_errors(tmp_path, capsys, command, config,
                                             error):
    path = write_config(tmp_path, **config)
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_overflowing_constants_exit_three(tmp_path, capsys):
    # the product once overflowed, the hit radius underflowed to 0, and the
    # lattice blamed the target accuracy (exit 2)
    override = {**C07A["constants_override"], "recon_const": 1e200,
                "forward_lip": 1e200}
    path = write_config(tmp_path, **{**C07A, "constants_override": override})
    assert main(["reconstruct", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "hypothesis violated: 2*forward_lip*recon_const*q_norm overflows")


@pytest.mark.parametrize("command", sorted(WRITING_RUNS))
def test_unwritable_output_exits_one(tmp_path, capsys, command):
    # a missing directory and a directory are config errors, as an
    # unreadable config is, and no traceback escapes
    path = write_config(tmp_path, problem_id="quadratic-2d",
                        **WRITING_RUNS[command])
    for out in (tmp_path / "missing" / "out", tmp_path):
        assert main([command, "--config", str(path), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output file {out}: ")
        assert err.count("\n") == 1


# Any float but NaN, infinities included; cli_runs mixes it with values near
# a problem's own scale.
ANY_FLOAT = st.floats(allow_nan=False)


def _positive(draw, label):
    """A positive float: small, moderate or huge, or inf."""
    return draw(st.one_of(st.floats(min_value=0.0, exclude_min=True),
                          st.floats(1e-3, 1e3)), label=label)


@st.composite
def cli_runs(draw):
    """A command and a parse-valid config for it: a mode that command runs,
    a gallery problem, the mode's required keys and any of the optional keys
    the command reads.  Budgets stay at 40 steps and tau at 100, and
    measurement matrices hold entries in [-2, 2]; q, eps, delta,
    target_gamma, tol_alpha, step_scale, x0, the boxes and the overridden
    certificate constants span their whole valid range."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)), label="command")
    mode = draw(st.sampled_from(sorted(modes_of(command))), label="mode")
    pid = draw(st.sampled_from(gallery_ids()), label="problem_id")
    prob = get_problem(pid)
    required, reads = cfgmod.READS[mode]
    keys = list(required) + [key for key in reads[command]
                             if draw(st.booleans(), label=f"has {key}")]
    if mode == "landweber" and ("tau" in keys) != ("delta" in keys):
        keys = [key for key in keys if key not in ("tau", "delta")]
    near = [st.floats(t - 2.0, t + 2.0) for t in prob.x_dagger]
    values = {
        "tau": lambda: draw(st.floats(1.0, 100.0, exclude_min=True), label="tau"),
        "delta": lambda: draw(st.one_of(st.just(0.0), st.floats(min_value=0.0)),
                              label="delta"),
        "max_iters": lambda: draw(st.integers(0, 40), label="max_iters"),
        "target_gamma": lambda: _positive(draw, "target_gamma"),
        "eps": lambda: draw(st.one_of(st.just(1.0),
                                      st.floats(0.0, 1.0, exclude_min=True)),
                            label="eps"),
        "tol_alpha": lambda: _positive(draw, "tol_alpha"),
        "noise_seed": lambda: draw(st.integers(0, 2**32), label="noise_seed"),
        "step_scale": lambda: _positive(draw, "step_scale"),
        "x0": lambda: [draw(st.one_of(axis, ANY_FLOAT), label="x0")
                       for axis in near],
        "box": lambda: dict(zip(("lower", "upper"), map(list, zip(*[
            sorted(draw(st.lists(st.one_of(axis, ANY_FLOAT), min_size=2,
                                 max_size=2), label="box")) for axis in near])))),
        "measurement": lambda: draw(st.one_of(
            st.just("identity"),
            st.lists(st.lists(st.floats(-2.0, 2.0), min_size=prob.model.dim_y,
                              max_size=prob.model.dim_y),
                     min_size=1, max_size=3)), label="measurement"),
        "constants_override": lambda: {
            name: _positive(draw, name)
            for name in draw(st.lists(st.sampled_from(cfgmod.CERT_FIELDS),
                                      unique=True, max_size=3),
                             label="override fields")},
    }
    raw = {"problem_id": pid, "mode": mode,
           "q": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     label="q")}
    raw.update({key: values[key]() for key in keys})
    return command, raw


@settings(max_examples=100, deadline=None)
@given(run=cli_runs())
def test_main_returns_a_documented_exit_code(run):
    # every parse-valid config ends in a documented exit code, never in a
    # raw exception.  numpy's floating-point warnings on values near the
    # ends of the float range (the squared norm of noise at delta = 1e200,
    # say) are diagnostics, not exits, and the CLI prints them as such.
    command, raw = run
    import yaml

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump({**raw, "output_path": str(Path(tmp) / "out")}))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([command, "--config", str(path)])
    assert code in range(6)


def _ks_uniform(u):
    """Kolmogorov-Smirnov distance of a sample from the uniform law on [0, 1]."""
    u = np.sort(u)
    i = np.arange(1, u.shape[0] + 1)
    return float(max(np.max(i / u.shape[0] - u), np.max(u - (i - 1) / u.shape[0])))


def _relu_model(n):
    """F(x) = max(x, 0) entry by entry about the origin: F(a) = F(b) on the
    whole negative orthant, so some blocks take only some of their pairs."""
    return ForwardModel(
        dim_x=n, dim_y=n, center=np.zeros(n), radius_sq=1e6,
        forward=lambda x: np.maximum(x, 0.0),
        jacobian_apply=lambda x, v: (x > 0.0) * v,
        jacobian_adjoint_apply=lambda x, w: (x > 0.0) * w,
    )


class TestStackedVerifyKeepsItsBits:
    """`verify`'s alpha-ceiling row against per-matrix references, bit for
    bit, and the sampler's draws against the uniform law on the ball."""

    @pytest.mark.parametrize("n", [2, 3, 8, 12])
    def test_identity_model_samples_in_any_dimension(self, n):
        # F(x) = x has a zero linearization error on every pair; from 8-D
        # on the ball fills under 1/60 of its cube, so only draws made in
        # the ball itself yield pairs
        worst = checks._tangential_cone_worst(linear_model(np.eye(n)), 0.5, 1.0)
        assert type(worst) is float and worst == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12])
    def test_draws_are_uniform_in_the_ball(self, n, monkeypatch):
        # every point F is taken at lies in the ball, and (||x - c||/rad)^n
        # is uniform on [0, 1] exactly when the radii are those of uniform
        # draws in n-D; the bound is the KS quantile at level 1e-3
        drawn = []

        def recording(model, xs):
            drawn.append(xs.copy())
            return forward_stack(model, xs)

        monkeypatch.setattr(checks, "forward_stack", recording)
        center, rad = np.linspace(-1.0, 2.0, n), 0.3
        checks._tangential_cone_worst(linear_model(np.eye(n), center=center),
                                      0.5, rad)
        xs = np.vstack(drawn)
        blocks = math.ceil(checks.VERIFY_SAMPLES / STACK_BLOCK)
        assert xs.shape == (blocks * 2 * STACK_BLOCK, n)
        dist = row_norms(xs - center)
        assert np.all(dist <= rad * (1.0 + 4.0 * np.finfo(float).eps))
        assert _ks_uniform((dist / rad) ** n) < 1.95 / math.sqrt(xs.shape[0])
        if n == 3:
            # and in 3-D each coordinate of the direction is uniform on
            # [-1, 1] (Archimedes)
            unit = (xs[:, 0] - center[0]) / dist
            assert _ks_uniform(0.5 * (unit + 1.0)) < 1.95 / math.sqrt(xs.shape[0])

    def test_relu_blocks_skip_pairs(self, monkeypatch):
        # the index path above is reached: the first block F is taken on
        # holds pairs with F(a) = F(b)
        model, stacks = _relu_model(2), []

        def recording(model, xs):
            stacks.append(forward_stack(model, xs))
            return stacks[-1]

        monkeypatch.setattr(checks, "forward_stack", recording)
        checks._tangential_cone_worst(model, 0.5, 1.0)
        f = stacks[0]
        assert not np.all(row_norms(f[:STACK_BLOCK] - f[STACK_BLOCK:]) != 0.0)

    def test_underflowing_data_differences_are_sampled(self):
        # F(x) = 1e-305 x: every ||F(a) - F(b)|| underflows when squared,
        # yet F separates every pair, so the sampler finds a finite worst
        # ratio (the rounding error of J(a)(a - b))
        worst = checks._tangential_cone_worst(linear_model([[1e-305]]), 0.5, 0.1)
        assert math.isfinite(worst) and 0.0 <= worst < 1e-10

    @pytest.mark.parametrize("pid", [*gallery_ids(), "sabotaged-adjoint"])
    def test_jacobian_norms_match_estimate(self, pid):
        prob = get_problem(pid)
        box = prob.default_box
        rng = np.random.default_rng(5)
        xs = box.lower + rng.random((40, box.dim)) * (box.upper - box.lower)
        xs = np.vstack([xs, prob.default_x0, prob.x_dagger])
        # the stacked J (batched for most problems) against the per-point J
        want = [float(np.linalg.norm(jacobian_matrix(prob.model, x), 2)) for x in xs]
        got = jacobian_norms(prob.model, xs, "J").tolist()
        assert [g.hex() for g in got] == [w.hex() for w in want]

    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), m=st.integers(1, 100), n=st.integers(1, 12),
           k=st.integers(1, 6), exponent=st.integers(-300, 300))
    def test_stacked_norm_matches_per_matrix(self, data, m, n, k, exponent):
        # one Jacobian per iterate, of every shape up to 100 x 12, served
        # per point by jacobian_apply and stacked by jacobian_batch
        seed = data.draw(st.integers(0, 2**32 - 1))
        mats = np.random.default_rng(seed).standard_normal((k, m, n)) * 10.0**exponent
        model = ForwardModel(
            dim_x=n, dim_y=m, center=np.zeros(n), radius_sq=1e6,
            forward=lambda x: np.zeros(m),
            jacobian_apply=lambda x, v: mats[int(x[0])][:, np.flatnonzero(v)[0]].copy(),
            jacobian_adjoint_apply=lambda x, w: np.zeros(n),
            jacobian_batch=lambda xs: mats[xs[:, 0].astype(int)],
        )
        xs = np.zeros((k, n))
        xs[:, 0] = np.arange(k)
        want = [float(np.linalg.norm(jacobian_matrix(model, x), 2)) for x in xs]
        got = jacobian_norms(model, xs, "J").tolist()
        assert [g.hex() for g in got] == [w.hex() for w in want]

    def test_non_finite_iterate_jacobian_exits_two(self, tmp_path, monkeypatch,
                                                   capsys):
        # only the batched J is NaN, so the runs and the operator checks,
        # which take J point by point, pass; the alpha-ceiling row is the
        # first to stack J.  A user certificate skips the re-verification.
        prob = get_problem("exp-decay")
        broken = dataclasses.replace(prob, model=dataclasses.replace(
            prob.model,
            jacobian_batch=lambda xs: np.full((xs.shape[0], 3, 2), np.nan)))
        monkeypatch.setattr(gallery, "get_problem", lambda pid: broken)
        path = mode_config(tmp_path, "verify",
                           output_path=str(tmp_path / "v.report"),
                           constants_override={"q_norm": 1.0})
        assert main(["verify", "--config", str(path)]) == 2
        assert "Jacobian at a recorded iterate is not finite" in \
            capsys.readouterr().err


class TestTangentialConeSampleCount:
    """The sampler takes J at exactly ``VERIFY_SAMPLES`` pairs, and a sample
    that stops short still reports the pairs it took."""

    @pytest.mark.parametrize("model", [linear_model(np.eye(2)), _relu_model(2)],
                             ids=["every-pair-taken", "some-pairs-skipped"])
    def test_jacobian_taken_at_exactly_the_sample_count(self, model):
        # without batched callables J at a pair's first point costs dim_x
        # Jacobian actions; F(x) = x takes every pair, so its last block is
        # sliced, and the ReLU model skips some, so its blocks are indexed
        counted, counts = cli.counting_model(model)
        checks._tangential_cone_worst(counted, 0.5, 1.0)
        assert counts["jacobian"] == checks.VERIFY_SAMPLES * model.dim_x

    def test_partial_sample_reports_the_pairs_taken(self):
        # F(x) = x on the first block's points, then 0: the second block
        # takes no pair and ends the sampling after STACK_BLOCK pairs; with
        # J = 2 I every taken pair has ||(a - b) - 2 (a - b)|| / (0.5 ||a - b||)
        calls = []

        def forward(x):
            calls.append(x)
            return x.copy() if len(calls) <= 2 * STACK_BLOCK else np.zeros(2)

        model = ForwardModel(dim_x=2, dim_y=2, center=np.zeros(2), radius_sq=1e6,
                             forward=forward, jacobian_apply=lambda x, v: 2.0 * v,
                             jacobian_adjoint_apply=lambda x, w: 2.0 * w)
        assert checks._tangential_cone_worst(model, 0.5, 1.0) == pytest.approx(2.0)
        assert len(calls) == 4 * STACK_BLOCK


class TestLibyamlParsing:
    """Configs are parsed by libyaml's CSafeLoader where pyyaml has it and by
    the pure-Python SafeLoader where it does not: every preset gives the
    same config on both, and invalid YAML is a config error on both."""

    def test_loader_is_libyaml_when_built(self):
        import yaml

        want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert cfgmod._SAFE_LOADER is want

    @pytest.mark.parametrize("path", sorted(Path(PRESETS).glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_presets_parse_as_with_safe_loader(self, path, monkeypatch):
        import yaml

        text = path.read_text(encoding="utf-8")
        raw = yaml.load(text, Loader=yaml.SafeLoader)
        assert repr(yaml.load(text, Loader=cfgmod._SAFE_LOADER)) == repr(raw)
        got = cfgmod.load_config(path)
        assert got == cfgmod.parse(raw)
        monkeypatch.setattr(cfgmod, "_SAFE_LOADER", yaml.SafeLoader)
        assert cfgmod.load_config(path) == got

    @pytest.mark.parametrize("text", ["q: [unclosed\n", "a: b: c\n",
                                      "problem_id: x\n\tmode: exact\n",
                                      "- 1\nq: 2\n", "'unterminated\n"])
    @pytest.mark.parametrize("libyaml", [True, False])
    def test_invalid_yaml_is_a_config_error(self, text, libyaml, monkeypatch):
        import yaml

        if not libyaml:
            monkeypatch.setattr(cfgmod, "_SAFE_LOADER", yaml.SafeLoader)
        with pytest.raises(ConfigInvalid, match="config is not valid YAML"):
            cfgmod.parse_text(text)
