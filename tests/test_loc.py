"""The line counter's split of a small module into code, docstring, comment and blank."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# code: 7, 8, 9, 12, 15, 19; docstring: 1, 3, 4, 13, 16, 17; comment: 5, 18;
# blank: 2, 6, 10, 11, 14 (line 2 inside the module docstring)
MODULE = '''"""Module doc.

More.
"""
# a comment

x = 1  # trailing
s = """not a
docstring"""


class A:
    """Class doc."""

    def f(self):
        \'\'\'Function
        doc.\'\'\'
        # inside
        return 2
'''


def test_lines_split_into_code_docstring_comment_and_blank():
    assert loc.count(MODULE) == {"code": 6, "docstring": 6, "comment": 2, "blank": 5}


def test_a_directory_sums_its_files(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path / "pkg")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "code": 7, "docstring": 6, "comment": 3, "blank": 6, "total": 22, "files": 2}
