"""Code lines of each ``src/nsnet`` module, and their total.

    python3 scripts/code_lines.py [--root CHECKOUT] [--options]

A code line is a line that holds part of a token other than a comment:
blank lines, comment-only lines and the lines of docstrings (the string
that opens a module, class or function body) do not count. Lines come from
``tokenize``, docstrings from ``ast``.

With ``--options`` it prints the public settable values of the checkout's
``nsnet`` instead: each config dataclass in ``nsnet.__all__`` (a dataclass
whose name ends in ``Config``) with its field count and fields, each
function there with its defaulted parameters, and their total.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}

DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def options(root: Path) -> list[tuple[str, list[str]]]:
    """(name, settable values) of each config dataclass and each function
    with defaulted parameters in ``nsnet.__all__`` of checkout ``root``."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    sys.path.insert(0, str(root / "src"))
    nsnet = importlib.import_module("nsnet")
    found = []
    for name in nsnet.__all__:
        obj = getattr(nsnet, name)
        if dataclasses.is_dataclass(obj) and name.endswith("Config"):
            found.append((name, [f.name for f in dataclasses.fields(obj)]))
        elif inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            defaulted = [p.name for p in params if p.default is not inspect.Parameter.empty]
            if defaulted:
                found.append((name, defaulted))
    return found


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to count (default: this one)")
    ap.add_argument("--options", action="store_true",
                    help="count public settable values instead of code lines")
    args = ap.parse_args()
    total = 0
    if args.options:
        for name, values in options(args.root):
            total += len(values)
            print(f"{name:16} {len(values):5}  {', '.join(values)}")
        print(f"{'total':16} {total:5}")
        return
    for path in sorted((args.root / "src" / "nsnet").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main()
