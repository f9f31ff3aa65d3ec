"""Source hygiene: every import in the package is used."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import tiltlab

PACKAGE = Path(tiltlab.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by imports, at module level or inside a function, that no
    expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unused_imports_are_detected():
    source = "import os\nfrom typing import Any, Callable\nx: Callable = os.sep\n"
    assert unused_imports(source) == ["line 2: Any"]
    assert unused_imports("def f():\n    import math\n    return 1\n") == ["line 2: math"]


def test_package_modules_have_no_unused_imports():
    # __init__.py imports in order to re-export.
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_importing_tiltlab_loads_no_process_pool():
    # Only a sweep under --jobs > 1 starts a pool, and it imports the pool
    # there: every other command is spared loading multiprocessing.
    code = (
        "import sys, tiltlab, tiltlab.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert run.stdout.strip() == "[]"
