"""No pchgrav module reads another pchgrav module's underscore names.

A leading underscore marks a name as its module's own; a module that needs it
from elsewhere asks for a public name instead.  The check parses each source
file of the package and reports every `from .m import _x` and every `m._x`
read through a name bound to another pchgrav module.  Dunder names such as
`__version__` are public.
"""

import ast
import pathlib

import pytest

import pchgrav

SRC = pathlib.Path(pchgrav.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _package_module(node: ast.ImportFrom) -> str | None:
    """The pchgrav module that `from ... import` names come from, "" for the package."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "pchgrav":
        return node.module.partition(".")[2]
    return None


def foreign_private_reads(source: str, module: str) -> list:
    """Each read of another pchgrav module's underscore name in the source of `module`."""
    tree = ast.parse(source)
    aliases, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (origin := _package_module(node)) is not None:
            for alias in node.names:
                if origin == "" and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
                elif origin != module and _private(alias.name):
                    found.append(f"{module}: from .{origin} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, name = alias.name.partition(".")
                if head == "pchgrav" and name in MODULES and alias.asname:
                    aliases[alias.asname] = name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, module) != module and _private(node.attr)):
            found.append(f"{module}: {aliases[node.value.id]}.{node.attr}")
    return sorted(set(found))


def test_no_module_reads_another_modules_private_names():
    found = [site for path in sorted(SRC.glob("*.py"))
             for site in foreign_private_reads(path.read_text(), path.stem)]
    assert found == []


@pytest.mark.parametrize("source,found", [
    ("from .grid import _NEXT, COMP_BASIS", ["wedgemaps: from .grid import _NEXT"]),
    ("from pchgrav.grid import _PREV", ["wedgemaps: from .grid import _PREV"]),
    ("from . import constraints as cst\ny = cst._flat(x) @ cst._GRAM_23_11_INV",
     ["wedgemaps: constraints._GRAM_23_11_INV", "wedgemaps: constraints._flat"]),
    ("def f():\n    from . import fiber\n    return fiber._action_tensor", ["wedgemaps: fiber._action_tensor"]),
    ("import pchgrav.reduction as red\nred._P12_E", ["wedgemaps: reduction._P12_E"]),
    ("from . import __version__\nfrom .grid import NEXT", []),
    ("from . import wedgemaps\nwedgemaps._own\nself._x", []),
    ("import numpy as np\nnp._core", []),
], ids=["from-import", "absolute", "alias", "local-import", "import-as", "public", "own", "foreign"])
def test_the_check_sees_each_form_of_read(source, found):
    assert foreign_private_reads(source, "wedgemaps") == found
