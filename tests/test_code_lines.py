import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code and a comment: one line\n"
        '    """Docstring."""\n'
        '    "a string statement is a docstring too"\n'
        "    y = (\n"
        "        x + 1\n"
        "    )\n"
        '    return """a string\n'
        'that is code"""\n'
        "\n"
        "\n"
        'z = "one"'
    )
    # def, the three lines of y, the two of the returned string, z
    assert load_tool().code_lines(source) == 7


def test_code_lines_print_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n')
    assert load_tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["1", str(tmp_path / "a.py")],
        ["0", str(tmp_path / "b.py")],
        ["1", "total"],
    ]
