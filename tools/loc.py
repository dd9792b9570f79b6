"""Count the lines of ``src/priorgt`` four ways, per file and in total.

    python tools/loc.py                    # this checkout
    python tools/loc.py --against ../base  # and the change from another checkout

Each line of a module is exactly one of:

- docstring: a line of a module, class or function docstring, found with
  ``ast``, blank lines inside the docstring included;
- comment: a line whose only token is a comment;
- blank: a line of whitespace only;
- code: any other line, a code line with a trailing comment included.

So the four counts sum to the file's line count.  ``--against DIR`` also
prints, for every file in either checkout, this checkout's counts minus
those of ``DIR/src/priorgt``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")
PACKAGE = Path("src") / "priorgt"


def count_lines(text: str) -> dict[str, int]:
    """The counts of each of ``KINDS`` in the module source ``text``, and
    their sum, ``total``, its line count."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    comment = {
        token.start[0]
        for token in tokenize.generate_tokens(io.StringIO(text).readline)
        if token.type == tokenize.COMMENT and not token.line[: token.start[1]].strip()
    }
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, 1):
        if number in docstring:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["total"] = len(lines)
    return counts


def count_package(root: Path) -> dict[str, dict[str, int]]:
    """``count_lines`` of every module of ``root/src/priorgt`` by file name,
    and their sums under ``"total"``."""
    files = {path.name: count_lines(path.read_text(encoding="utf-8")) for path in sorted((root / PACKAGE).glob("*.py"))}
    files["total"] = {kind: sum(c[kind] for c in files.values()) for kind in (*KINDS, "total")}
    return files


def table(rows: dict[str, dict[str, int]], signed: bool = False) -> str:
    columns = (*KINDS, "total")
    cell = "{:>+10}" if signed else "{:>10}"
    lines = ["{:<16}".format("file") + "".join("{:>10}".format(c) for c in columns)]
    lines += ["{:<16}".format(name) + "".join(cell.format(counts[c]) for c in columns) for name, counts in rows.items()]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None, help="another checkout to print the change from")
    args = parser.parse_args(argv)
    here = count_package(Path(__file__).resolve().parent.parent)
    print(table(here), end="")
    if args.against is not None:
        there = count_package(args.against)
        zero = dict.fromkeys((*KINDS, "total"), 0)
        names = sorted(set(here) | set(there), key=lambda name: (name == "total", name))
        change = {name: {k: here.get(name, zero)[k] - there.get(name, zero)[k] for k in zero} for name in names}
        print(f"\nchange from {args.against}:")
        print(table(change, signed=True), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
