import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import qclattice

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_export_resolves():
    missing = [name for name in qclattice.__all__ if not hasattr(qclattice, name)]
    assert not missing
    assert len(set(qclattice.__all__)) == len(qclattice.__all__)


def test_no_assert_statements_in_the_package():
    # invariants are real checks that still run under python -O, which
    # strips assert statements
    paths = Path(qclattice.__file__).resolve().parent.rglob("*.py")
    found = [f"{path}:{node.lineno}"
             for path in sorted(paths)
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _resolves(modname, attr):
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in getattr(getattr(mod, cls_name, None), "__dict__", {})
    return callable(getattr(mod, attr, None))


def test_trace_targets_resolve(monkeypatch):
    # the benchmark's per-layer trace wraps these names; a target that no
    # longer resolves is silently skipped and its layer reads 0.
    # gf2.triangularize is gone from the package and still listed there.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [(modname, attr) for modname, attr, _, _ in tracing.TARGETS
               if not _resolves(modname, attr)]
    assert missing == [("qclattice.gf2", "triangularize")]
