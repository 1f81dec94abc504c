"""Delimited-text trace files.

Layout: a block of '#'-prefixed header lines (config echo, certificate,
theory constants, hypothesis report), one comma-delimited row per iteration
(row 0 is the initial state), then '#'-prefixed footer lines carrying the
terminal status and the stopping index.  Floats are printed with 17
significant digits so that parsing reproduces them bit for bit; unset cells
are empty.  A header value is written verbatim unless it holds a line break,
has leading or trailing blanks, or starts with '"'; such a value is written
as a JSON string literal, so every header value reads back unchanged.

Wall-clock time is deliberately not part of the format: with fixed seeds a
rerun must produce a byte-identical file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .engine import IterationTrace, TraceRecord

COLUMNS = ("k", "alpha", "residual", "gamma", "step_norm", "mdp_prime_rel_err")
_MAGIC = "lmrecon-trace v1"


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _cell(value) -> str:
    return "" if value is None else fmt_float(value)


def _parse_cell(text: str) -> float | None:
    return None if text == "" else float(text)


def _quote(value: str) -> str:
    """``value`` as it goes on a header line (see the module docstring)."""
    if (value.startswith('"') or value != value.strip()
            or "".join(value.splitlines()) != value):
        return json.dumps(value)
    return value


@dataclass
class TraceFile:
    """Structured content of one trace file."""

    header: list[tuple[str, str]] = field(default_factory=list)
    rows: list[TraceRecord] = field(default_factory=list)
    terminal: str = ""
    k_star: int | None = None

    @classmethod
    def from_trace(cls, trace: IterationTrace,
                   header: dict | None = None) -> "TraceFile":
        items: list[tuple[str, str]] = []
        for key, value in (header or {}).items():
            items.append((str(key), _format_header_value(value)))
        for warning in trace.warnings:
            items.append(("warning", warning))
        return cls(header=items, rows=list(trace.records),
                   terminal=trace.terminal, k_star=trace.k_star)


def _format_header_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_format_header_value(v) for v in value)
    return str(value)


def flatten_header(prefix: str, mapping: dict) -> dict:
    """Nested dict -> dotted keys, for embedding reports in trace headers."""
    out = {}
    for key, value in mapping.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_header(name, value))
        else:
            out[name] = value
    return out


def dumps(tf: TraceFile) -> str:
    lines = [f"# {_MAGIC}"]
    for key, value in tf.header:
        lines.append(f"# {key}: {_quote(value)}")
    lines.append(f"# columns: {','.join(COLUMNS)}")
    for row in tf.rows:
        lines.append(",".join((
            str(row.k),
            _cell(row.alpha),
            fmt_float(row.residual),
            _cell(row.gamma),
            _cell(row.step_norm),
            _cell(row.mdp_prime_rel_err),
        )))
    lines.append(f"# terminal: {tf.terminal}")
    lines.append(f"# k_star: {'none' if tf.k_star is None else tf.k_star}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> TraceFile:
    tf = TraceFile()
    seen_rows = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body == _MAGIC:
                continue
            key, sep, value = body.partition(":")
            key, value = key.strip(), value.strip()
            if not sep:
                raise ValueError(f"line {lineno}: malformed comment line {raw!r}")
            if key == "columns":
                if value != ",".join(COLUMNS):
                    raise ValueError(f"line {lineno}: unexpected column set {value!r}")
            elif key == "terminal":
                tf.terminal = value
            elif key == "k_star":
                tf.k_star = None if value == "none" else int(value)
            elif seen_rows:
                raise ValueError(f"line {lineno}: unexpected footer key {key!r}")
            else:
                tf.header.append(
                    (key, json.loads(value) if value.startswith('"') else value))
            continue
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise ValueError(
                f"line {lineno}: expected {len(COLUMNS)} cells, got {len(cells)}"
            )
        tf.rows.append(TraceRecord(
            k=int(cells[0]),
            alpha=_parse_cell(cells[1]),
            residual=float(cells[2]),
            gamma=_parse_cell(cells[3]),
            step_norm=_parse_cell(cells[4]),
            mdp_prime_rel_err=_parse_cell(cells[5]),
        ))
        seen_rows = True
    return tf


def write_trace(path, tf: TraceFile) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(tf))


def read_trace(path) -> TraceFile:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())
