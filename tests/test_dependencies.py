import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "submatch"


def absolute_imports():
    """(file name, line, top-level module) of each absolute import in the
    package; relative imports stay inside it."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, node.lineno, name.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    foreign = [f"{file}:{line} imports {top}" for file, line, top in absolute_imports()
               if top != "numpy" and top not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_one_scatter_primitive():
    """Scatter-adds go through autodiff.RankPlan.sum: no ufunc .at() loops and
    no weighted np.bincount."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "at":
                calls.append(f"{path.name}:{node.lineno} calls .at()")
            if node.func.attr == "bincount" and (
                    len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords)):
                calls.append(f"{path.name}:{node.lineno} calls bincount with weights")
    assert not calls, calls


def test_one_bfs_queue():
    """Hop distances come from LabeledGraph.bfs_distances; no other module
    imports the deque a hand-written BFS would need."""
    imports = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module == "collections"
                    and any(alias.name == "deque" for alias in node.names)
                    and path.name != "graphs.py"):
                imports.append(f"{path.name}:{node.lineno} imports deque")
    assert not imports, imports


def test_one_ctypes_import():
    """The platform-specific allocator call stays in util.py: no other module
    imports ctypes."""
    imports = [f"{file}:{line} imports ctypes" for file, line, top in absolute_imports()
               if top == "ctypes" and file != "util.py"]
    assert not imports, imports


def test_one_catalog_loop():
    """The small-graph catalog is swept by selftest.oracle_equivalence_suite
    alone; criterion 1 and the unit spot check call that suite."""
    root = PACKAGE.parent.parent
    calls = []
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        if path.name in ("selftest.py", "smallgraphs.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "small_catalog" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append(f"{path.name}:{node.lineno} calls small_catalog")
    assert not calls, calls


ONLINE_STEPS = ("embed_query_nodes", "alignment", "vote_mask_for", "decide")


def test_one_online_decision_path():
    """query.answer is the one place in the package that turns a query into
    a decision: no other module calls the four steps it chains."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "query.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in ONLINE_STEPS:
                    calls.append(f"{path.name}:{node.lineno} calls {name}")
    assert not calls, calls
