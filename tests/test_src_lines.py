import pathlib
import re

import src_lines

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_classes_sum_to_each_file_length():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        counts = src_lines.classify(path)
        assert set(counts) == set(src_lines.CLASSES)
        assert sum(counts.values()) == len(path.read_text().splitlines()), path


def test_docstring_blank_lines_count_as_docstring(tmp_path):
    path = tmp_path / "m.py"
    path.write_text('"""Module.\n\nMore."""\n\n# note\ndef f():\n    """One."""\n    return 1\n')
    assert src_lines.classify(path) == {"code": 2, "docstring": 4, "comment": 1, "blank": 1}


def test_docstrings_name_tuned_constants_not_their_values():
    # _CLASS_FORM_MAX_K (4), _BLOCK (32) and the MINRES constants (1e-12, 500)
    # are named, never written as values, so a retuned constant leaves no
    # stale docstring; nor is the implicit step's accuracy (1e-8 against a
    # dense solve in the tests) a docstring's claim; kde's density constant
    # appears at its definition only
    values = re.compile(r"\bfour\b|<= ?4\b|\b32\b|1e-12|\b500\b|1e-8")
    stated, density = [], 0
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for number in sorted(src_lines.docstring_lines(source)):
            if values.search(lines[number - 1]):
                stated.append(f"{path.name}:{number}")
            density += "(2 pi a^2)" in lines[number - 1]
    assert stated == []
    assert density == 1
