"""Every function, method and class in ``src/nodalpol`` is used somewhere.

A definition whose name appears as a word nowhere in ``src/``, ``tests/``
or ``bench/`` except at its own ``def`` or ``class`` line is dead code.
Dunders and the ``_cmd_*`` handlers are exempt: Python and ``cli.main``
reach them by name.  The check is by word, so a dead method that shares
its name with something live (say, a method of ``random.Random``) goes
unseen.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nodalpol"


def _definitions() -> Counter:
    """How many times each function, method or class name is defined."""
    names: Counter = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names[node.name] += 1
    return names


def _word_counts() -> Counter:
    words: Counter = Counter()
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def _exempt(name: str) -> bool:
    return (name.startswith("__") and name.endswith("__")) or name.startswith("_cmd_")


def test_every_definition_is_used():
    words = _word_counts()
    dead = sorted(
        name
        for name, defined in _definitions().items()
        if not _exempt(name) and words[name] <= defined
    )
    assert dead == []
