import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "submatch"


def test_numpy_is_the_only_runtime_dependency():
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                if top != "numpy" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
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
