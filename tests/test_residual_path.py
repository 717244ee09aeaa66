"""One residual path, pinned.

Every chain-level check states its residual as (coeff, word) specs, and
divpow.evaluate_specs alone turns them into operators and hands the terms
to repchain.evaluate_zero_identity.  A check that summed its own operators
would bring back a second path, so any other function of the package that
names evaluate_zero_identity (a call, a callback or an alias) shows up
here.
"""

import ast
from pathlib import Path

import qloop

NAME = "evaluate_zero_identity"
PINNED = {("divpow", "evaluate_specs")}


class _Users(ast.NodeVisitor):
    """The dotted scopes of a module that refer to NAME, under any alias
    an import gives it."""

    def __init__(self):
        self.names = {NAME}
        self.scope: list[str] = []
        self.found: set[str] = set()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def visit_alias(self, node):
        if node.name.rpartition(".")[2] == NAME and node.asname:
            self.names.add(node.asname)

    def _use(self, name):
        if name in self.names:
            self.found.add(".".join(self.scope) or "<module>")

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _users(source: str) -> set[str]:
    visitor = _Users()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_spec_evaluator_is_the_one_residual_path():
    found = {(path.stem, scope)
             for path in Path(qloop.__file__).parent.glob("*.py")
             for scope in _users(path.read_text())}
    assert found == PINNED


def test_every_use_is_recognised():
    source = (
        "from .repchain import evaluate_zero_identity\n"
        "from . import repchain\n"
        "from .repchain import evaluate_zero_identity as ezi\n"
        "def a(): return evaluate_zero_identity('f', {}, [], None)\n"
        "def b(): return repchain.evaluate_zero_identity('f', {}, [], None)\n"
        "def c(): return ezi('f', {}, [], None)\n"
        "def d(): return map(evaluate_zero_identity, [])\n"
        "class E:\n"
        "    def f(self):\n"
        "        def g(): return evaluate_zero_identity\n"
        "        return g\n"
        "def h():\n"
        "    '''evaluate_zero_identity in a docstring is not a use'''\n"
    )
    assert _users(source) == {"a", "b", "c", "d", "E.f.g"}
