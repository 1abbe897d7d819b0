"""Count the lines of the cantori sources, total and code, and their public names.

A code line holds a token that is not a comment or a docstring (a string
that is a statement on its own); blank lines hold none.  This is the count
that the BENCH files' ``src_lines`` and ROADMAP's sizes use.  The public
count is the number of module-level functions and classes whose names do
not start with an underscore, and the parameter count is the number of
parameters of those public functions (classes and their methods not counted).
Run it from the repository root:

    python tests/src_lines.py [SOURCE_DIR]

SOURCE_DIR defaults to ``src/cantori``.  It prints one row per module and
one for the whole directory: total lines, code lines, public names, public
function parameters.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own; comments and blank-line NLs are dropped before the count.
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path) -> tuple[int, int, int, int]:
    """(total lines, code lines, public functions and classes, parameters of the public functions)
    of one Python file."""
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    # tokenize starts with ENCODING and ends with ENDMARKER, so every other token has both neighbours.
    for before, tok, after in zip(tokens, tokens[1:], tokens[2:]):
        docstring = tok.type == tokenize.STRING and before.type in _LAYOUT and after.type == tokenize.NEWLINE
        if tok.type not in _LAYOUT and not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
    text = path.read_text()
    public = [node for node in ast.parse(text).body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")]
    signatures = [node.args for node in public if isinstance(node, ast.FunctionDef)]
    parameters = sum(len(a.posonlyargs) + len(a.args) + len(a.kwonlyargs) + (a.vararg is not None)
                     + (a.kwarg is not None) for a in signatures)
    return len(text.splitlines()), len(code), len(public), parameters


def main(root: Path) -> None:
    rows = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    rows[f"{root.parent.name}/"] = tuple(map(sum, zip(*rows.values())))
    for name, (total, code, public, parameters) in rows.items():
        print(f"{name:16} {total:6,} {code:6,} {public:4} {parameters:4}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/cantori"))
