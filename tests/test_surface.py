"""Every public function and class of the library has a caller outside the tests.

The scan reads the syntax trees of `src/fermap` (without `__init__.py`, which
only re-exports) and of `perfbench/*.py`.  A public module-level name that
none of them mentions, apart from its own definition, is code that only
tests reach: move it into the tests, delete it, or list it in KEPT with the
reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KEPT = {
    "dense_fock_states": "the oracle's dense reference that mapping.fock_state is checked against",
}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def _scan():
    """({public name: module} of the library, {names mentioned outside their own definition})."""
    library = sorted(p for p in (ROOT / "src" / "fermap").glob("*.py") if p.name != "__init__.py")
    defined, mentioned = {}, set()
    for path in library + sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            if path in library and isinstance(node, (ast.FunctionDef, ast.ClassDef)) and own[0] != "_":
                defined[own] = path.stem
            mentioned.update(name for name in _names(node) if name != own)
    return defined, mentioned


def test_every_public_name_has_a_caller_outside_tests():
    defined, mentioned = _scan()
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in mentioned and name not in KEPT)
    assert not unused, f"called only by tests: {unused}"


def test_kept_names_exist_and_need_the_exemption():
    defined, mentioned = _scan()
    for name in KEPT:
        assert name in defined and name not in mentioned, name
