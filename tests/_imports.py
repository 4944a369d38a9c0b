"""What a fresh interpreter has loaded after running some code."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def modules_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the ``sys.modules`` it left.

    The interpreter is isolated (``-I``: no environment variables, no
    user site), with this checkout's ``src`` first on the path.
    """
    script = (f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}\n"
              "print(sorted(sys.modules))\n")
    done = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))
