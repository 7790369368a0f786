"""``tools/src_lines.py`` counts a module's code lines without its
docstrings, comment-only lines and blank lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""Module docstring,
over two lines."""

# a comment
TEXT = """a string, not a docstring:
# this line is code"""


class A:
    """Class docstring."""

    def f(self):  # a trailing comment
        """Function docstring."""
        return 1
'''
    assert tool.code_lines(source) == 5  # TEXT's two lines, class, def, return
