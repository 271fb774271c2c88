import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring
        over two lines."""
        s = """a string that is
        not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_only():
    # import, class, def, the two lines of s and the two of the return
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(capsys):
    assert code_lines.main([str(ROOT / "src" / "divatlas")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][0] == "total"
    modules = {name: int(count) for name, count in rows[:-1]}
    assert "atlas.py" in modules and "subspaces.py" in modules
    assert sum(modules.values()) == int(rows[-1][1])
