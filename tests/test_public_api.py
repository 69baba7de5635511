"""Public-API sanity: exports exist, examples compile, docstrings present."""

import ast
import importlib
import inspect
import pathlib
import py_compile
import sys

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


_ENDPOINTS = {"tag_documents", "interpret_queries", "neighborhood",
              "concepts_of_entity", "record_read", "user_interests",
              "recommend_for_user", "track_events", "follow_ups"}


def _follower_work(path: pathlib.Path) -> "list[str]":
    """Calls that bootstrap from a snapshot or record a gap recovery."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        gap_event = node.func.attr == "record" and node.args and \
            getattr(node.args[0], "value", None) == \
            "replication.gap_rebootstrap"
        if node.func.attr == "latest_snapshot" or gap_event:
            found.append(f"{path.name}:{node.lineno} {node.func.attr}")
    return found


def test_only_the_follower_bootstraps_and_recovers():
    """Structure guard: one follower.  Snapshot-plus-tail bootstrap and
    DeltaGapError -> re-bootstrap live in ``LogFollower``; a module that
    calls ``latest_snapshot()`` or records the gap event itself is a
    second hand-rolled catch-up loop."""
    src = _repo_root() / "src" / "repro"
    follower = src / "replication" / "follower.py"
    assert len(_follower_work(follower)) == 2
    offenders = [call for path in sorted(src.rglob("*.py"))
                 if path != follower for call in _follower_work(path)]
    assert not offenders, offenders


def test_only_the_service_declares_the_serving_endpoints():
    """Structure guard: one façade.  A class defining several of the
    nine endpoint names outside ``serving/service.py`` (the sync tiers,
    by inheritance) and ``serving/aio.py`` (the awaitable twin) is a
    forwarding front; the cluster modules define none at all, and hold
    no inner ``_service``."""
    src = _repo_root() / "src" / "repro"
    facades = {src / "serving" / "service.py", src / "serving" / "aio.py"}
    fronts = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if path not in facades and isinstance(node, ast.ClassDef):
                names = _ENDPOINTS & {item.name for item in node.body
                                      if isinstance(item, ast.FunctionDef)}
                if len(names) > 1:
                    fronts.append(f"{path.name}:{node.name} {sorted(names)}")
        if path.parent.name == "cluster":
            own = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)}
            if path.name in ("service.py", "remote.py"):
                assert not own & _ENDPOINTS, (path.name, own & _ENDPOINTS)
            assert not any(isinstance(node, ast.Attribute)
                           and node.attr == "_service"
                           for node in ast.walk(tree)), path.name
    assert not fronts, fronts


#: Text that only a second whole-ontology format would need.
_SECOND_FORMAT = ("snapshot_format", "ontology_to_dict", "read_segment",
                  "accept=")
_SEGMENT_CODEC = {"encode_store_segment", "decode_store_segment",
                  "check_segment"}


def test_one_snapshot_format():
    """Structure guard: the JSON store snapshot is the only whole-ontology
    representation.  No portable dump, no user-selected snapshot
    encoding, no columnar pass-through on the wire; only the serializer
    and ``OntologyStore.bootstrap`` turn a snapshot dict into a store,
    and no module calls the store-segment codec, which stays in
    ``core/columnar.py`` as the perf ledger's probe."""
    src = _repo_root() / "src" / "repro"
    owners = {src / "core" / "serialize.py", src / "core" / "store.py"}
    offenders = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        offenders += [f"{path.name}: {word}" for word in _SECOND_FORMAT
                      if word in text]
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            name = node.func.attr if isinstance(node.func, ast.Attribute) \
                else getattr(node.func, "id", None)
            if (name == "store_from_dict" and path not in owners) or \
                    (name in _SEGMENT_CODEC and path.name != "columnar.py"):
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert not offenders, offenders


#: Text only a log or catalog with a metadata file beside its names needs.
_METADATA_FILES = ("MANIFEST.json", "CATALOG.json")
_METADATA_CODE = ("_write_manifest", "LOG_FORMAT_VERSION",
                  "CATALOG_FORMAT_VERSION")


def test_file_names_are_the_log_metadata():
    """Structure guard: a segment's file name is its base version and a
    snapshot's is its version.  The old metadata file names appear only
    in ``reject_manifest_layout`` (which refuses such a directory), and
    nothing that wrote or versioned those files remains."""
    src = _repo_root() / "src" / "repro"
    log = src / "replication" / "log.py"
    check = next(node for node in ast.walk(ast.parse(log.read_text()))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "reject_manifest_layout")
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            inside = path == log and \
                check.lineno <= lineno <= check.end_lineno
            offenders += [f"{path.name}:{lineno} {word}"
                          for word in _METADATA_FILES
                          if word in line and not inside]
            offenders += [f"{path.name}:{lineno} {word}"
                          for word in _METADATA_CODE if word in line]
    assert not offenders, offenders


def test_batcher_drains_what_is_queued(capsys):
    """Structure guard: the micro-batcher never waits for more requests.
    It has no flush deadline and no knob for one, and its queue bound is
    a module constant, not an option."""
    from repro.cli import build_parser
    from repro.serving import AsyncOntologyService, MicroBatcher

    assert list(inspect.signature(MicroBatcher).parameters) == [
        "execute", "max_batch_size", "metrics"]
    assert list(inspect.signature(AsyncOntologyService).parameters) == [
        "backend", "max_batch_size", "registry"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["serve", "--help"])
    assert "delay" not in capsys.readouterr().out
    source = (_repo_root() / "src" / "repro" / "serving"
              / "batcher.py").read_text()
    assert "wait_for" not in source and "sleep" not in source


#: The packed binary codec, kept only as the perf ledger's probe.
_BINARY_CODEC = {"dumps_binary", "loads_binary", "is_binary_frame"}


def test_one_wire_encoding(capsys):
    """Structure guard: every socket carries canonical JSON replies.  No
    function takes a ``wire`` choice, no CLI command offers ``--wire``,
    no module names a ``negotiate`` method, and the binary codec is
    called only inside its own definitions (``bench/layers.py`` times
    it; nothing in ``src/repro`` sends it)."""
    from repro.cli import build_parser

    for command in ("serve", "audit"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert "--wire" not in capsys.readouterr().out, command
    src = _repo_root() / "src" / "repro"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        codec_spans = [(node.lineno, node.end_lineno)
                       for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and node.name in _BINARY_CODEC]
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {arg.arg for arg in (args.posonlyargs + args.args
                                             + args.kwonlyargs)}
                if "wire" in names:
                    offenders.append(f"{where} {node.name}(wire=)")
                if node.name == "negotiate":
                    offenders.append(f"{where} def negotiate")
            elif isinstance(node, ast.Constant) and node.value == "negotiate":
                offenders.append(f"{where} 'negotiate'")
            elif isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) \
                    else getattr(node.func, "id", None)
                if name in _BINARY_CODEC and not any(
                        start <= node.lineno <= end
                        for start, end in codec_spans):
                    offenders.append(f"{where} {name}()")
    assert not offenders, offenders


def test_ci_installs_every_third_party_import():
    """Every top-level module the test, benchmark and bench trees import
    is stdlib, first-party, or on the CI workflow's pip install line —
    otherwise collection fails on a clean runner."""
    root = _repo_root()
    ci = (root / ".github" / "workflows" / "ci.yml").read_text()
    line = next(text for text in ci.splitlines() if "pip install" in text)
    installed = {word.replace("-", "_").lower()
                 for word in line.split("pip install", 1)[1].split()}
    trees = [root / name for name in ("tests", "benchmarks", "bench")]
    first_party = {"repro", "bench"} | {path.stem for tree in trees
                                        for path in tree.rglob("*.py")}
    missing = set()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                missing |= {f"{name.split('.')[0]} ({path.name})"
                            for name in names
                            if name.split(".")[0] not in
                            sys.stdlib_module_names | first_party
                            | installed}
    assert not missing, sorted(missing)


def test_version_string():
    import repro

    assert repro.__version__ == "1.0.0"
