"""The module-level caches of the package, pinned.

A module-level cache holds its values for the life of the process, across
runs and chains.  Each is a decision, so adding or removing one shows up
here.  A memo local to a call (the builder's dressed site columns) is not
module-level and is not counted.
"""

import ast
from pathlib import Path

import qloop

PINNED = {
    ("rings", "_division_inverse"),
    ("rings", "quotient"),
    ("rings", "cyclo_ring"),
}


def _is_cache(decorator: ast.expr) -> bool:
    """@lru_cache, @lru_cache(...), @cache, and the functools.-qualified forms."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return (isinstance(decorator.value, ast.Name)
                and decorator.value.id == "functools"
                and decorator.attr in ("lru_cache", "cache"))
    return isinstance(decorator, ast.Name) and decorator.id in ("lru_cache", "cache")


def _cached_functions(source: str) -> set[str]:
    """The top-level functions of a module's source wrapped in a cache."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_is_cache(d) for d in node.decorator_list)}


def test_module_level_caches_are_pinned():
    found = {(path.stem, name)
             for path in Path(qloop.__file__).parent.glob("*.py")
             for name in _cached_functions(path.read_text())}
    assert found == PINNED


def test_every_cache_spelling_is_recognised():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache\ndef b(): pass\n"
        "@cache\ndef c(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef d(): pass\n"
        "@functools.cache\ndef e(): pass\n"
        "@staticmethod\ndef f(): pass\n"
        "def g():\n    @cache\n    def local(): pass\n"
    )
    assert _cached_functions(source) == {"a", "b", "c", "d", "e"}
