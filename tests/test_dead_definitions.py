"""No dead definitions: every function, method and class in ``src/`` is
named somewhere besides its own ``def``/``class`` line.

The name is counted as a whole word across the code, tests, examples,
benchmarks, tools and docs; a name that occurs exactly once occurs only
where it is defined, so nothing calls, tests or documents it.  Dunder
methods are called by the language and are not checked.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).parent.parent

#: Where a use of a definition may live.
SEARCHED_DIRS = ("src", "tests", "examples", "benchmarks", "tools", "docs")
SEARCHED_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _searched_paths():
    for name in SEARCHED_DIRS:
        for path in sorted((REPO / name).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                yield path
    for name in SEARCHED_FILES:
        yield REPO / name


def _word_counts():
    counts = Counter()
    for path in _searched_paths():
        text = path.read_bytes().decode("utf-8", errors="ignore")
        counts.update(re.findall(r"\w+", text))
    return counts


def _definitions():
    """``(name, "file:line")`` of every non-dunder def/class in src/."""
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            where = f"{path.relative_to(REPO)}:{node.lineno}"
            yield node.name, where


def test_every_definition_is_named_elsewhere():
    counts = _word_counts()
    dead = sorted(f"{where} {name}" for name, where in _definitions()
                  if counts[name] <= 1)
    assert not dead, (
        "defined but never named anywhere else (delete them, or use "
        "them):\n  " + "\n  ".join(dead))
