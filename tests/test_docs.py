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
