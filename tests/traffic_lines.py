"""List the statements of the cantori sources that the benchmark's traffic never runs.

It line-traces ``src/cantori``, on the main thread and on the classical
runner's pool threads, while it runs each perfbench workload's warm-up and
one checked pass at seed 7, then ``cantori list-scenarios``,
``default-config`` and ``validate`` on the default config.  It then prints,
per module, how many statements never ran and where they are: each run of
sibling statements that never ran is one line, its line span and the text
of its first line.  Docstrings are not counted.  It reads perfbench and
edits nothing there; the passes' run directories are removed.  Run it from
the repository root:

    python tests/traffic_lines.py

It exits 1 if a pass fails its checks.  The trace costs several seconds.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import shutil
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantori"
PERFBENCH = ROOT / "perfbench"
SEED = 7


def line_tracer(ran: dict[str, set[int]]):
    """A global trace function that adds to ran[file name] the line of every line event in
    code of SRC, and traces nothing else."""
    src = str(SRC)

    def trace(frame, event, arg):
        directory, name = os.path.split(frame.f_code.co_filename)
        if directory != src:
            return None
        lines = ran[name]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    return trace


def _docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
            and node is getattr(parent, "body", [None])[0])


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement less those of the statements nested in it: a compound
    statement's header (with its decorators), a simple statement's every line."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
    nested = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
    return range(first, min(nested) if nested else node.end_lineno + 1)


def never_ran(parent: ast.AST, lines: set[int]) -> tuple[int, int, list[tuple[int, int]]]:
    """(statements, statements never run, spans (first, last line) of sibling runs never run) under parent."""
    total = missed = 0
    spans = []
    for field in ("body", "orelse", "handlers", "finalbody"):
        open_span = False
        for node in getattr(parent, field, []):
            if isinstance(node, ast.ExceptHandler):
                t, m, s = never_ran(node, lines)
                total, missed, spans, open_span = total + t, missed + m, spans + s, False
                continue
            if _docstring(node, parent):
                continue
            t, m, s = never_ran(node, lines)
            total += t + 1
            if any(n in lines for n in _own_lines(node)):
                missed += m
                spans += s
                open_span = False
            else:
                missed += m + 1
                if open_span:
                    spans[-1] = (spans[-1][0], node.end_lineno)
                else:
                    spans.append((node.lineno, node.end_lineno))
                open_span = True
    return total, missed, spans


def run_traffic() -> list[str]:
    """Each workload's warm-up and one checked pass, then the three cheap commands; returns the problems."""
    sys.path.insert(0, str(PERFBENCH))
    import checkout

    checkout.import_program()
    import workloads
    from cantori import cli

    problems = []
    refs = workloads.load_references()
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(SEED, refs)
        workload.warm_up()
        capture = workloads.QuantumCapture()
        capture.install()
        stamp = f"traffic-{os.getpid()}-{name}"
        try:
            ops = workload.run_pass(stamp, capture)
        finally:
            capture.close()
        problems += [f"{name} {op.name}: {p}" for op in ops for p in op.check()]
        checkout.remove_outputs(stamp)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        config = Path(tmp) / "default.ini"
        config.write_text(cli.DEFAULT_CONFIG)
        for argv in (["list-scenarios"], ["default-config"], ["validate", str(config)]):
            if cli.main(argv) != 0:
                problems.append(f"cantori {' '.join(argv)} exited nonzero")
    return problems


def main() -> int:
    os.chdir(ROOT)      # perfbench's configs write their runs under the checkout root
    out_existed = (ROOT / ".perfbench_out").exists()
    ran = defaultdict(set)
    trace = line_tracer(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        problems = run_traffic()
    finally:
        sys.settrace(None)
        threading.settrace(None)
        if not out_existed:
            shutil.rmtree(ROOT / ".perfbench_out", ignore_errors=True)
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text().splitlines()
        total, missed, spans = never_ran(ast.parse("\n".join(lines)), ran[path.name])
        print(f"{path.name}: {missed} of {total} statements never ran")
        for first, last in spans:
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {lines[first - 1].strip()[:90]}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
