"""Imports: every name a module of cantori imports is used there, every
private name it defines is used there, every public name it defines and
every dataclass field it declares is used outside the tests, and SciPy
loads only with the elliptic classical backend.

No linter runs on this code, so four tests stand in for one.  The first
reads the syntax tree of each module and of each test file, collects the
names its import statements bind, and fails on any that no expression
loads.  It covers __init__.py too: the package re-exports nothing, so each
name is imported from the module that defines it.  The second fails on any
top-level private function, class or variable of a module that the module
itself never loads.  The third fails on any top-level public name, and any
public method, property or classmethod of a top-level class, that no file in
src/ or perfbench/ loads.  The fourth fails on any annotated field of a
dataclass in cantori whose name no attribute access in src/ or perfbench/
loads.  Neither counts a test as a user: code that only the tests, the
acceptance criteria among them, call or read belongs in the tests, beside
the checks that use it as their reference.  The SciPy checks run in a fresh
interpreter each, since this one has imported SciPy long before.  One more
test stands in for a check of the suite's own settings: under pyproject.toml's
warning filters, a failing property test is reported and the session goes on.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cantori"
PERFBENCH = TESTS.parent / "perfbench"


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in loaded}
    assert not unused, f"{path.name} imports names it never uses (name: line): {unused}"


def module_names(tree: ast.Module) -> dict[str, int]:
    """Top-level function, class and assigned names of a module, with their line numbers."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return defined


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_private_names(path):
    """Every module-level private name (function, class or assignment) is loaded in its own module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = module_names(tree)
    private = {name: line for name, line in defined.items() if name.startswith("_") and not name.startswith("__")}
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in private.items() if name not in loaded}
    assert not unused, f"{path.name} defines private names it never uses (name: line): {unused}"


def test_every_public_name_is_used():
    """Every module-level public name of cantori is loaded, as a name, as an attribute or by a
    from-import, and every public method, property or classmethod of a module-level class is
    loaded as an attribute, somewhere in src/ or perfbench/."""
    loaded = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded |= {alias.name for alias in node.names}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        methods = {f"{cls.name}.{item.name}": item.lineno for cls in tree.body if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        unused += [f"{path.name}:{line} {name}" for name, line in {**module_names(tree), **methods}.items()
                   if not any(part.startswith("_") for part in name.split(".")) and name.split(".")[-1] not in loaded]
    assert not unused, f"public names that only the tests use, or nothing: {unused}"


def test_every_dataclass_field_is_read():
    """Every annotated field of a cantori dataclass is loaded as an attribute somewhere in src/ or perfbench/."""
    read = set()
    for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]:
        tree = ast.parse(path.read_text(), filename=str(path))
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(cls, ast.ClassDef) and any(
                ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass" for d in cls.decorator_list
            ):
                unread += [
                    f"{path.name}:{item.lineno} {cls.name}.{item.target.id}"
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in read
                ]
    assert not unread, f"dataclass fields that only the tests read, or nothing: {unread}"


def test_failing_property_test_is_reported(tmp_path):
    """Under the repository's pytest settings a failing Hypothesis test is reported as one
    failure and the session goes on: the hypothesis plugin's report hook raises a
    DeprecationWarning while it reports the failure, which the "error" filter alone turns
    into an INTERNALERROR that ends the session."""
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(TESTS.parent / "pyproject.toml"),
                           "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tmp_path / "test_property.py")],
                          capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in proc.stdout, out


def run_fresh(script: str, *args: str) -> str:
    """Run script in a fresh interpreter with cantori importable; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quantum_scenarios_never_load_scipy(tmp_path):
    out = run_fresh("""
        import sys
        from pathlib import Path

        import cantori
        from cantori import cli

        tmp = Path(sys.argv[1])
        default = tmp / "default.ini"
        default.write_text(cli.DEFAULT_CONFIG)
        assert cli.main(["validate", str(default)]) == 0
        assert cli.main(["list-scenarios"]) == 0
        assert cli.main(["default-config"]) == 0
        for scenario in ("wigner", "waterfall"):
            config = tmp / f"{scenario}.ini"
            config.write_text(cli.DEFAULT_CONFIG.replace("scenario = transport", f"scenario = {scenario}")
                              .replace("basis_size = 128", "basis_size = 64")
                              .replace("output_dir = runs", f"output_dir = {tmp / 'runs'}"))
            assert cli.main(["run", str(config)]) == 0
        print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """, str(tmp_path))
    assert out.count("wrote ") == 2
    assert out.splitlines()[-1] == "scipy modules: []"
    assert len(list((tmp_path / "runs").iterdir())) == 2


def test_first_elliptic_call_on_pool_workers():
    """SciPy's first import happens inside the kernel on the pool's workers,
    and the run on two workers gives the bytes of the run on one, for the
    record and for the transport counts."""
    out = run_fresh("""
        import sys
        import threading

        import numpy as np

        from cantori import analysis, classical
        from cantori.model import SimParams

        class Watch:
            # Records the thread that looks scipy.special up; finds nothing itself.
            threads = []

            def find_spec(self, name, path=None, target=None):
                if name == "scipy.special":
                    self.threads.append(threading.current_thread().name)

        assert "scipy.special" not in sys.modules
        sys.meta_path.insert(0, Watch())
        params = SimParams(kick_strength=270.0, scaled_planck=2.6, n_trajectories=20_000, n_kicks=2, rng_seed=11)
        ensemble = classical.thermal_ensemble(params)
        records, counts = [], []
        for workers in (2, 1):
            classical._WORKERS = workers
            records.append(classical.evolve_ensemble(ensemble, params, method="elliptic"))
            counts.append(classical.transport_counts(params, 10.0))
        assert np.array_equal(records[0].phi, records[1].phi) and np.array_equal(records[0].rho, records[1].rho)
        fractions = analysis.transport_curve_classical(records[0], 10.0).fraction_outside
        assert all((c / 20_000).tobytes() == fractions.tobytes() for c in counts)
        assert Watch.threads and Watch.threads[0].startswith("cantori-kicks"), Watch.threads
        print("equal")
    """)
    assert out.splitlines()[-1] == "equal"
