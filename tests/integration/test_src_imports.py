"""``src/`` stands alone: no ``repro`` module imports the test suite.

The test suite keeps reference implementations (``tests/*/legacy_*``)
that production code must never reach.  Every ``repro`` submodule is
imported in a fresh interpreter whose working directory is outside the
repository and whose ``sys.path`` gains only ``src``, so an import of
``tests`` (or of anything else outside ``src``) fails there.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys

    sys.path.insert(0, sys.argv[1])
    import repro

    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # ``python -m repro``'s entry point runs the CLI on import.
        if not info.name.endswith(".__main__")
    ]
    for name in names:
        importlib.import_module(name)
    assert "tests" not in sys.modules, "a repro module imported tests"
    print(len(names))
    """
)


def test_every_repro_module_imports_with_only_src_on_the_path(tmp_path):
    # -I: no cwd, PYTHONPATH or user site on sys.path.
    result = subprocess.run(
        [sys.executable, "-I", "-c", SCRIPT, str(SRC)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 50
