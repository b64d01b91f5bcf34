import pathlib

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
