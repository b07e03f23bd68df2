"""Count the code lines of the rlcnet package.

A line counts when it holds a token other than a comment or a docstring; a
docstring is a string that makes up a whole statement.  Blank lines do not
count.  A token that spans several lines, such as a multi-line string in an
expression, counts every line it spans.

    python3 tools/code_lines.py [package directory]

prints one line per module and the total; the directory defaults to
src/rlcnet next to this script's parent.
"""

import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, and the comments
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Number of lines of the Python file `path` that hold code."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    statement = []   # the tokens of the logical line read so far
    for tok in tokens:
        if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
            # a statement that is one string is a docstring
            if not (len(statement) == 1
                    and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 \
        else Path(__file__).resolve().parent.parent / "src" / "rlcnet"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
