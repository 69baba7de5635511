"""Public-API sanity: exports exist, examples compile, docstrings present."""

import ast
import importlib
import pathlib
import py_compile

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.linking",
    "repro.graph",
    "repro.tsp",
    "repro.nn",
    "repro.text",
    "repro.synth",
    "repro.datasets",
    "repro.apps",
    "repro.serving",
    "repro.cluster",
    "repro.replication",
    "repro.obs",
    "repro.baselines",
    "repro.eval",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip()


def _repo_root() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("example", sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
), ids=lambda p: p.name)
def test_examples_compile(example):
    py_compile.compile(str(example), doraise=True)


def test_public_modules_have_docstrings():
    src = _repo_root() / "src" / "repro"
    missing = []
    for path in src.rglob("*.py"):
        text = path.read_text()
        stripped = text.lstrip()
        if not (stripped.startswith('"""') or stripped.startswith("'''")):
            missing.append(str(path.relative_to(src)))
    assert not missing, f"modules without docstrings: {missing}"


_WIRE_CALLS = {"read_frame", "read_frame_sync", "write_frame",
               "write_frame_sync", "encode_envelope", "loads_envelope"}


def _wire_calls(path: pathlib.Path) -> "list[str]":
    """Frame I/O and envelope codec calls in one source file, plus any
    ``json.loads`` applied to something named ``frame``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        on_frame = any(isinstance(part, ast.Name) and part.id == "frame"
                       for arg in node.args for part in ast.walk(arg))
        if name in _WIRE_CALLS or (name == "loads" and on_frame):
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_rpc_module_touches_frames_and_envelopes():
    """Structure guard: one envelope implementation.  Servers contribute
    a method table to ``rpc.Dispatcher`` and clients hold a
    ``rpc.BlockingRpcClient`` / ``rpc.RpcClient``; a module that reads,
    writes or parses frames itself is a fourth hand-rolled RPC loop."""
    src = _repo_root() / "src" / "repro"
    rpc = src / "serving" / "rpc.py"
    assert _wire_calls(rpc), "the guard no longer sees rpc.py's own calls"
    offenders = [call for path in sorted(src.rglob("*.py")) if path != rpc
                 for call in _wire_calls(path)]
    assert not offenders, offenders


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"
