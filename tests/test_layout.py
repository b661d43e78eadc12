"""The package keeps only what its commands, its benchmark or its public API use.

An AST scan of src/burkholder and perfbench/ collects every function and
class defined in the package and every name the two trees read: a bare
name, an attribute, or a string in an `__all__` list (the public API). A
definition whose name is read nowhere is an orphan. Dunder methods are
exempt, as Python calls them. The scan goes by name, not by binding, so it
misses an orphan that shares its name with a used one; it never flags a
used definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exported(node):
    """The strings of an `__all__ = [...]` assignment, else nothing."""
    if (isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__"
                                             for t in node.targets)):
        return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def orphans(package, readers):
    """{name: [where defined]} for the functions and classes defined in the
    `package` sources that no source in `package` or `readers` reads;
    both are dicts from a label to Python source text."""
    defined, read = {}, set()
    for label, text in list(package.items()) + list(readers.items()):
        for node in ast.walk(ast.parse(text)):
            if label in package and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, []).append(f"{label}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            read |= _exported(node)
    return {name: where for name, where in defined.items()
            if name not in read and not (name.startswith("__") and name.endswith("__"))}


def _sources(top):
    return {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / top).rglob("*.py"))}


def test_every_definition_in_the_package_is_used():
    assert orphans(_sources("src/burkholder"), _sources("perfbench")) == {}


def test_the_scan_finds_an_orphan():
    package = {"mod.py": "__all__ = ['api']\n"
                         "def api():\n    return _used()\n"
                         "def _used():\n    pass\n"
                         "def _unused():\n    pass\n"
                         "class Thing:\n    def __len__(self):\n        return 0\n"
                         "    def spare(self):\n        pass\n"}
    readers = {"bench.py": "import mod\nmod.Thing()\n"}
    assert orphans(package, readers) == {"_unused": ["mod.py:6"], "spare": ["mod.py:11"]}
