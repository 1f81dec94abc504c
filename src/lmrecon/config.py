"""Run-configuration files.

Configs are YAML (``key: value`` with nested sections).  The schema is closed:
unknown keys are rejected, every value is range-checked before any computation
starts, and error messages name the offending field and the violated
constraint.  ``parse(serialize(cfg))`` returns an equal config.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, fields

import yaml

from .errors import ConfigInvalid
from .operators import StabilityCertificate
from .recon import BUDGET_CAP

# mode -> (keys it requires, {command that runs it: the other keys it reads}).
# parse rejects a key no command reads in the mode, and main one its command
# does not read, unless the key holds its default (eps, tol_alpha and
# noise_seed always hold one, so only main rejects them).  Landweber reads no
# certificate or shift tolerance, exact data draw no noise, and compare runs a
# fixed budget on the problem's own certificate.
READS = {
    "exact": (("max_iters",), {
        "solve": ("eps", "target_gamma", "tol_alpha", "constants_override", "x0"),
        "compare": ("tol_alpha", "x0", "step_scale")}),
    "noisy": (("tau", "delta", "max_iters"), {
        "solve": ("eps", "tol_alpha", "noise_seed", "constants_override", "x0"),
        "compare": ("tol_alpha", "noise_seed", "x0", "step_scale")}),
    "reconstruct_exact": (("target_gamma",), {"reconstruct": (
        "eps", "tol_alpha", "box", "measurement", "constants_override")}),
    "reconstruct_noisy": (("tau", "delta", "max_iters"), {"reconstruct": (
        "eps", "tol_alpha", "box", "measurement", "noise_seed", "constants_override")}),
    "landweber": (("max_iters",), {
        "solve": ("tau", "delta", "noise_seed", "x0", "step_scale")}),
    "verify": ((), {"verify": ("eps", "tau", "delta", "max_iters", "tol_alpha",
                               "noise_seed", "constants_override")}),
}
MODES = tuple(READS)

# what constants_override may set: neither the exponent (eps) nor the trust
CERT_FIELDS = tuple(f.name for f in fields(StabilityCertificate)
                    if f.name not in ("holder_eps", "provenance"))

# libyaml parses a config some ten times faster than pure Python
_SAFE_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# exponent notation that YAML 1.1 reads as text: 1e-3 (no decimal point) or
# 1.0e3 (an unsigned exponent)
_EXPONENT_TEXT = re.compile(r"(?=[-+]?\.?\d)([-+]?\d*)(\.\d*)?[eE]([-+]?)(\d+)", re.A)


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
# every other key, with the value it holds when a config leaves it out
DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name not in _REQUIRED}


def _fail(field: str, message: str):
    raise ConfigInvalid(f"config field '{field}': {message}")


def _expect(cond: bool, field: str, message: str):
    if not cond:
        _fail(field, message)


def _check_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fix = isinstance(value, str) and _EXPONENT_TEXT.fullmatch(value)
        _fail(field, f"expected a number, got {value!r}" + (
            "; write it with a decimal point and a signed exponent, as "
            f"{fix[1]}{fix[2] or '.0'}e{fix[3] or '+'}{fix[4]}" if fix else ""))
    return float(value)


def _check_string(value, field: str) -> str:
    if not isinstance(value, str):
        _fail(field, f"expected a string, got {value!r}")
    return value


def _check_integer(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(field, f"expected an integer, got {value!r}")
    return value


def _check_vector(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        _fail(field, "expected a non-empty list of numbers")
    return [_check_number(v, field) for v in value]


def _check_finite_vector(value, field: str) -> list:
    values = _check_vector(value, field)
    _expect(all(map(math.isfinite, values)), field,
            f"expected finite numbers, got {values}")
    return values


def _ranged(kind, ok, message: str):
    """The check of a scalar: ``kind`` checks its type, ``ok`` its value."""
    def check(value, field: str):
        value = kind(value, field)
        _expect(ok(value), field, message)
        return value
    return check


def _check_box(box, field: str) -> dict:
    if not isinstance(box, dict) or set(box) != {"lower", "upper"}:
        _fail(field, "expected a mapping with exactly 'lower' and 'upper'")
    lower = _check_vector(box["lower"], "box.lower")
    upper = _check_vector(box["upper"], "box.upper")
    _expect(len(lower) == len(upper), field, "lower and upper must have equal length")
    _expect(all(lo <= up for lo, up in zip(lower, upper)), field,
            "requires lower <= upper componentwise")
    return {"lower": lower, "upper": upper}


def _check_measurement(meas, field: str):
    if isinstance(meas, str):
        _expect(meas == "identity", field,
                "unknown preset; use one of ('identity',) or a matrix")
        return meas
    if not isinstance(meas, list):
        _fail(field, "expected a preset name or a matrix literal")
    rows = [_check_finite_vector(row, field) for row in meas]
    _expect(len({len(r) for r in rows}) == 1, field,
            "matrix rows must have equal length")
    return rows


def _check_override(override, field: str) -> dict:
    if not isinstance(override, dict):
        _fail(field, "expected a mapping of certificate fields")
    bad = set(override) - set(CERT_FIELDS)
    _expect(not bad, field, f"unknown certificate fields {sorted(bad)}")
    return {key: _check_number(value, f"{field}.{key}")
            for key, value in override.items()}


_POSITIVE = _ranged(_check_number, lambda v: 0.0 < v < math.inf,
                    "must be positive and finite")
_NON_NEGATIVE_INT = _ranged(_check_integer, lambda v: v >= 0, "must be >= 0")

# key -> the check of its value, in RunConfig's field order, which is the
# order parse checks them in
_CHECKS = {
    "eps": _ranged(_check_number, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"),
    # an infinite threshold tau delta stops every run at k = 0
    "tau": _ranged(_check_number, lambda v: 1.0 < v < math.inf,
                   "must be > 1 and finite"),
    "delta": _ranged(_check_number, lambda v: 0.0 <= v < math.inf,
                     "must be >= 0 and finite"),
    # every iterate stays on the trace, so a run is as long as recon's cap
    "max_iters": _ranged(_check_integer, lambda v: 0 <= v <= BUDGET_CAP,
                         f"must lie in [0, {BUDGET_CAP}]"),
    # an infinite target is reached at k = 0
    "target_gamma": _POSITIVE,
    # an infinite tolerance would accept alpha_bound at every step
    "tol_alpha": _POSITIVE,
    "box": _check_box,
    "measurement": _check_measurement,
    "noise_seed": _NON_NEGATIVE_INT,
    "constants_override": _check_override,
    "x0": _check_finite_vector,
    "step_scale": _POSITIVE,
}


def parse(raw: dict) -> RunConfig:
    """Validate a mapping against the schema and build a RunConfig.

    A key that the mapping leaves out, or sets to null where its default is
    None, is not set; null for a key with another default fails that key's
    type check.  Every set key is checked against the mode before any value
    is checked.
    """
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
        problem_id=_check_string(raw["problem_id"], "problem_id"),
        mode=_check_string(raw["mode"], "mode"),
        q=_check_number(raw["q"], "q"),
        output_path=_check_string(raw["output_path"], "output_path"),
    )
    _expect(cfg.mode in MODES, "mode", f"must be one of {MODES}")
    _expect(0.0 < cfg.q < 1.0, "q",
            f"value {cfg.q} violates the constraint 0 < q < 1")
    required, reads = READS[cfg.mode]
    accepted = set(required).union(*reads.values())
    given = {}
    for key, default in DEFAULTS.items():
        if (value := raw.get(key, default)) is not default:
            _expect(default is not None or key in accepted, key,
                    f"not read in mode '{cfg.mode}'")
            given[key] = value
    lone = [key for key in ("tau", "delta") if key in given]
    if cfg.mode == "landweber" and len(lone) == 1:
        _fail(lone[0], "mode 'landweber' reads tau and delta only together")

    for key, value in given.items():
        setattr(cfg, key, _CHECKS[key](value, key))
    for key in required:
        _expect(key in given, key, f"required for mode '{cfg.mode}'")
    return cfg


def check_command(cfg: RunConfig, command: str) -> None:
    """Raise :class:`ConfigInvalid` unless ``command`` runs ``cfg.mode`` and
    reads every key that ``cfg`` holds at other than its default."""
    required, reads = READS[cfg.mode]
    if command not in reads:
        raise ConfigInvalid(f"mode '{cfg.mode}' is not handled by '{command}'")
    read = required + reads[command]
    # in field order, but noise_seed, which --seed may have set, comes last
    for key in sorted(DEFAULTS, key="noise_seed".__eq__):
        _expect(key in read or getattr(cfg, key) == DEFAULTS[key], key,
                f"not read by '{command}' in mode '{cfg.mode}'")


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
