"""Run-configuration files.

Configs are YAML (``key: value`` with nested sections).  The schema is closed:
unknown keys are rejected, every value is range-checked before any computation
starts, and error messages name the offending field and the violated
constraint.  ``parse(serialize(cfg))`` returns an equal config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import yaml

from .errors import ConfigInvalid
from .operators import StabilityCertificate

# mode -> (required keys, optional keys).  Any other key whose RunConfig
# default is None is not read in that mode, and parse rejects it; eps,
# tol_alpha and noise_seed always hold a value and parse never rejects them
# (cli.COMMAND_MODES lists the ones a command does not read).
MODE_KEYS = {
    "exact": (("max_iters",),
              ("eps", "constants_override", "tol_alpha", "target_gamma", "x0",
               "step_scale")),
    "noisy": (("tau", "delta", "max_iters"),
              ("eps", "constants_override", "tol_alpha", "noise_seed", "x0",
               "step_scale")),
    "reconstruct_exact": (("target_gamma",),
                          ("eps", "constants_override", "tol_alpha", "box",
                           "measurement")),
    "reconstruct_noisy": (("tau", "delta", "max_iters"),
                          ("eps", "constants_override", "tol_alpha", "noise_seed",
                           "box", "measurement")),
    "landweber": (("max_iters",),
                  ("eps", "constants_override", "tau", "delta", "noise_seed", "x0",
                   "step_scale")),
    "verify": ((), ("eps", "constants_override", "tau", "delta", "max_iters",
                    "tol_alpha", "noise_seed")),
}
MODES = tuple(MODE_KEYS)
MEASUREMENT_PRESETS = ("identity", "average", "first-coordinate")

CERT_FIELDS = tuple(f.name for f in fields(StabilityCertificate))

# libyaml parses a config some ten times faster than pure Python
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class RunConfig:
    """Validated contents of one config file."""

    problem_id: str
    mode: str
    q: float
    output_path: str
    eps: float = 1.0
    tau: float | None = None
    delta: float | None = None
    max_iters: int | None = None
    target_gamma: float | None = None
    tol_alpha: float = 1e-10
    box: dict | None = None
    measurement: object | None = None
    noise_seed: int = 0
    constants_override: dict | None = None
    x0: list | None = None
    step_scale: float | None = None


_REQUIRED = ("problem_id", "mode", "q", "output_path")


def _fail(field: str, message: str):
    raise ConfigInvalid(f"config field '{field}': {message}")


def _expect(cond: bool, field: str, message: str):
    if not cond:
        _fail(field, message)


def _check_number(value, field: str, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(field, f"expected a number, got {value!r}")
    return kind(value)


def _check_vector(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(field, "expected a non-empty list of numbers")
    return [_check_number(v, field) for v in value]


def parse(raw: dict) -> RunConfig:
    """Validate a mapping against the schema and build a RunConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config root must be a mapping")
    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(
            f"unknown config keys: {sorted(unknown)}; known keys: {sorted(known)}"
        )
    for key in _REQUIRED:
        if key not in raw:
            _fail(key, "required")

    cfg = RunConfig(
        problem_id=str(raw["problem_id"]),
        mode=str(raw["mode"]),
        q=_check_number(raw["q"], "q"),
        output_path=str(raw["output_path"]),
    )
    _expect(cfg.mode in MODES, "mode", f"must be one of {MODES}")
    _expect(0.0 < cfg.q < 1.0, "q",
            f"value {cfg.q} violates the constraint 0 < q < 1")
    required, optional = MODE_KEYS[cfg.mode]
    for key, spec in RunConfig.__dataclass_fields__.items():
        _expect(spec.default is not None or raw.get(key) is None
                or key in required + optional, key,
                f"not read in mode '{cfg.mode}'")
    lone = [key for key in ("tau", "delta") if raw.get(key) is not None]
    if cfg.mode == "landweber" and len(lone) == 1:
        _fail(lone[0], "mode 'landweber' reads tau and delta only together")

    if "eps" in raw:
        cfg.eps = _check_number(raw["eps"], "eps")
        _expect(0.0 < cfg.eps <= 1.0, "eps", "must lie in (0, 1]")
    if raw.get("tau") is not None:
        cfg.tau = _check_number(raw["tau"], "tau")
        _expect(cfg.tau > 1.0, "tau", "must be > 1")
    if raw.get("delta") is not None:
        cfg.delta = _check_number(raw["delta"], "delta")
        _expect(cfg.delta >= 0.0, "delta", "must be >= 0")
    if raw.get("max_iters") is not None:
        value = raw["max_iters"]
        if isinstance(value, bool) or not isinstance(value, int):
            _fail("max_iters", f"expected an integer, got {value!r}")
        _expect(value >= 0, "max_iters", "must be >= 0")
        cfg.max_iters = value
    if raw.get("target_gamma") is not None:
        cfg.target_gamma = _check_number(raw["target_gamma"], "target_gamma")
        _expect(cfg.target_gamma > 0, "target_gamma", "must be positive")
    if "tol_alpha" in raw:
        cfg.tol_alpha = _check_number(raw["tol_alpha"], "tol_alpha")
        _expect(cfg.tol_alpha > 0, "tol_alpha", "must be positive")
    if raw.get("box") is not None:
        box = raw["box"]
        if not isinstance(box, dict) or set(box) != {"lower", "upper"}:
            _fail("box", "expected a mapping with exactly 'lower' and 'upper'")
        lower = _check_vector(box["lower"], "box.lower")
        upper = _check_vector(box["upper"], "box.upper")
        _expect(len(lower) == len(upper), "box",
                "lower and upper must have equal length")
        _expect(all(lo <= up for lo, up in zip(lower, upper)), "box",
                "requires lower <= upper componentwise")
        cfg.box = {"lower": lower, "upper": upper}
    if raw.get("measurement") is not None:
        meas = raw["measurement"]
        if isinstance(meas, str):
            _expect(meas in MEASUREMENT_PRESETS, "measurement",
                    f"unknown preset; use one of {MEASUREMENT_PRESETS} or a matrix")
            cfg.measurement = meas
        elif isinstance(meas, list):
            rows = [_check_vector(row, "measurement") for row in meas]
            _expect(len({len(r) for r in rows}) == 1, "measurement",
                    "matrix rows must have equal length")
            cfg.measurement = rows
        else:
            _fail("measurement", "expected a preset name or a matrix literal")
    if "noise_seed" in raw:
        value = raw["noise_seed"]
        if isinstance(value, bool) or not isinstance(value, int):
            _fail("noise_seed", f"expected an integer, got {value!r}")
        cfg.noise_seed = value
    if raw.get("constants_override") is not None:
        override = raw["constants_override"]
        if not isinstance(override, dict):
            _fail("constants_override", "expected a mapping of certificate fields")
        bad = set(override) - set(CERT_FIELDS)
        _expect(not bad, "constants_override",
                f"unknown certificate fields {sorted(bad)}")
        checked = {}
        for key, value in override.items():
            if key == "provenance":
                _expect(value in ("user", "oracle-estimated"),
                        "constants_override.provenance",
                        "must be 'user' or 'oracle-estimated'")
                checked[key] = value
            else:
                checked[key] = _check_number(value, f"constants_override.{key}")
        cfg.constants_override = checked
    if raw.get("x0") is not None:
        cfg.x0 = _check_vector(raw["x0"], "x0")
    if raw.get("step_scale") is not None:
        cfg.step_scale = _check_number(raw["step_scale"], "step_scale")
        _expect(cfg.step_scale > 0, "step_scale", "must be positive")

    for key in required:
        _expect(getattr(cfg, key) is not None, key,
                f"required for mode '{cfg.mode}'")
    return cfg


def parse_text(text: str) -> RunConfig:
    """Parse YAML ``text`` and validate it with :func:`parse`.

    The parser is libyaml's ``CSafeLoader`` when pyyaml was built with
    libyaml, else the pure-Python ``SafeLoader``; both use the same safe
    constructor and resolver, so a valid config gives the same mapping.
    Only the wording of a YAML syntax error differs between them.
    """
    try:
        raw = yaml.load(text, Loader=_SAFE_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigInvalid(f"config is not valid YAML: {exc}") from exc
    return parse(raw if raw is not None else {})


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    return parse_text(text)


def serialize(cfg: RunConfig) -> str:
    """YAML text whose parse equals ``cfg`` (unset optionals are omitted)."""
    data = {k: v for k, v in asdict(cfg).items() if v is not None}
    return yaml.safe_dump(data, sort_keys=False)
