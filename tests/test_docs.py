"""The README's code runs as documented."""

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
