"""Lines of the package's source, per file, as code, docstring, comment and blank.

Run from the repository root::

    python tests/src_lines.py [SOURCE_DIR]

which prints one row per ``*.py`` file under SOURCE_DIR (``src`` by
default), then a total row.  A line is a docstring line when it lies in the
line range of a module, class or function docstring, blank lines inside one
included; else a comment line when its first non-blank character is ``#``;
else blank when it holds only whitespace; else code.  The four classes sum
to each file's length.  The name does not start with ``test_``, so pytest
does not collect this file.
"""

import ast
import sys
from pathlib import Path

CLASSES = ("code", "docstring", "comment", "blank")


def docstring_lines(source):
    """The 1-based numbers of every line inside a module, class or function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def classify(path):
    """``{class: count}`` for the lines of one source file."""
    source = Path(path).read_text()
    in_docstring = docstring_lines(source)
    counts = dict.fromkeys(CLASSES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in in_docstring:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv):
    root = Path(argv[0] if argv else "src")
    total = dict.fromkeys(CLASSES, 0)
    print(f"{'file':<32}" + "".join(f"{name:>10}" for name in CLASSES + ("total",)))
    for path in sorted(root.rglob("*.py")):
        counts = classify(path)
        for name in CLASSES:
            total[name] += counts[name]
        row = [counts[name] for name in CLASSES] + [sum(counts.values())]
        print(f"{str(path.relative_to(root)):<32}" + "".join(f"{v:>10}" for v in row))
    row = [total[name] for name in CLASSES] + [sum(total.values())]
    print(f"{'total':<32}" + "".join(f"{v:>10}" for v in row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
