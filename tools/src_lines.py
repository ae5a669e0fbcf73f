"""Count the lines of Python files as code, docstring, comment and blank.

Usage: ``python tools/src_lines.py [PATH ...]`` (default ``src``). Each
directory is searched for ``*.py`` files. Prints one row per file and a
total row.

Every line falls in exactly one class, decided in this order:

* docstring - a line spanned by a string literal that stands alone as a
  statement (module, class and function docstrings, and any other bare
  string), blank lines inside it included;
* code - a line holding any other token;
* comment - a line holding only a comment;
* blank - everything else.
"""

import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("code", "docstring", "comment", "blank")
# tokens after which a string literal starts a statement
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.NL, tokenize.COMMENT, tokenize.ENDMARKER}


def _ends_statement(tokens, i):
    """Whether the first token from ``tokens[i]`` on that is not a comment ends a statement."""
    while tokens[i].type == tokenize.COMMENT:
        i += 1
    return tokens[i].type in (tokenize.NEWLINE, tokenize.ENDMARKER)


def count_lines(source):
    """The ``COLUMNS`` counts of one file's ``source`` text, as a dict."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    docstring, code, comment = set(), set(), set()
    prev = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        lines = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.STRING and prev in _STATEMENT_START and _ends_statement(tokens, i + 1):
            docstring.update(lines)
        elif tok.type == tokenize.COMMENT:
            comment.update(lines)
        elif tok.type not in _LAYOUT:
            code.update(lines)
        if tok.type not in (tokenize.COMMENT, tokenize.NL):  # neither ends a statement
            prev = tok.type
    code -= docstring
    comment -= docstring | code
    total = len(source.splitlines())
    counts = {"code": len(code), "docstring": len(docstring), "comment": len(comment)}
    counts["blank"] = total - sum(counts.values())
    return counts


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src"]
    rows = [(str(f), count_lines(f.read_text())) for f in python_files(paths)]
    totals = {c: sum(r[c] for _, r in rows) for c in COLUMNS}
    rows.append(("total", totals))
    name_w = max(len(name) for name, _ in rows)
    print(f"{'file':<{name_w}} {'lines':>6} " + " ".join(f"{c:>9}" for c in COLUMNS))
    for name, r in rows:
        print(f"{name:<{name_w}} {sum(r.values()):>6} " + " ".join(f"{r[c]:>9}" for c in COLUMNS))


if __name__ == "__main__":
    main()
