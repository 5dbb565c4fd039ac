import ast
from pathlib import Path

import nsnet

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    assert [name for name in nsnet.__all__ if not hasattr(nsnet, name)] == []
    assert len(set(nsnet.__all__)) == len(nsnet.__all__)


def _references(path: Path) -> set[str]:
    """Names a module reads, as a bare name or as an attribute, outside the
    top-level definition that binds the name itself."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= names
    return found


def test_every_export_has_a_caller():
    """The public surface is what the pipeline calls: each export is used by
    another part of the library or by the benchmark, not only by tests."""
    sources = [p for p in (ROOT / "src" / "nsnet").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "nsbench").glob("*.py"))
    used = set().union(*map(_references, sources))
    assert [name for name in nsnet.__all__ if name not in used] == []
