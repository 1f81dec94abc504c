"""The README's code runs as documented, and its config key table says what
the schema says."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    # the "Library in one minute" block, in a fresh interpreter
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[0] == "zero_residual"


def test_readme_key_table_matches_schema():
    # the "read by" cell of each key names exactly the commands, and for
    # each the modes (bold where the mode requires the key), that
    # config.READS gives it; the four required keys are read everywhere
    from lmrecon import config

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    cells = dict(re.findall(r"^\| `(\w+)` \| [^|]*\| ([^|]*) \|", section, re.M))
    assert list(cells) == [*config._REQUIRED, *config.DEFAULTS]
    want = {key: {} for key in config.DEFAULTS}
    for mode, (required, reads) in config.READS.items():
        for command, keys in reads.items():
            for key in required:
                want[key].setdefault(command, set()).add(f"**{mode}**")
            for key in keys:
                want[key].setdefault(command, set()).add(mode)
    for key in config._REQUIRED:
        assert cells[key] == "every command and mode"
    for key, cell in cells.items():
        if key in want:
            named = [part.split(" ", 1) for part in cell.split("; ")]
            assert {command.strip("`"): set(modes.split(", "))
                    for command, modes in named} == want[key], key


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_readme_exit_codes_name_every_error(tmp_path, monkeypatch, capsys):
    # each SolverError subclass is named in exactly one row of the README's
    # exit-code table, and main returns that row's code when a command
    # raises it
    from lmrecon import cli, errors

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    named = {}
    for code, meaning in re.findall(r"^\| (\d) \| (.*) \|$", section, re.M):
        for name in re.findall(r"`(\w+)`", meaning):
            if isinstance(getattr(errors, name, None), type):
                assert name not in named, name
                named[name] = int(code)
    classes = list(_subclasses(errors.SolverError))
    assert sorted(named) == sorted(cls.__name__ for cls in classes)
    preset = str(ROOT / "presets" / "c01_scalar_closed_form.yaml")
    for cls in classes:
        def raising(cfg, cls=cls):
            raise cls("raised")
        monkeypatch.setitem(cli._COMMANDS, "solve", raising)
        code = cli.main(["solve", "--config", preset,
                         "--output", str(tmp_path / "out")])
        assert code == named[cls.__name__], cls.__name__
        assert capsys.readouterr().err.endswith(": raised\n")
