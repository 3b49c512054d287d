"""Count the code lines of Python modules: the lines that hold a token of code.

Blank lines, comment lines and docstring lines are not counted; a docstring
is any string literal that stands alone as a statement. A line holding code
and a comment counts once, and a statement spanning several lines counts
each of them. Prints one count per module and the total:

    python tools/code_lines.py src/spinopt
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens of layout, not code; a statement begins after the first four
_STATEMENT_END = (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
_LAYOUT = (*_STATEMENT_END, tokenize.ENDMARKER)


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold a token of code."""
    with open(path, "rb") as fh:
        skipped = (tokenize.COMMENT, tokenize.NL)
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in skipped]
    lines: set[int] = set()
    for before, token, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = (
            token.type == tokenize.STRING
            and before.type in _STATEMENT_END
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if token.type not in _LAYOUT and not docstring:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
