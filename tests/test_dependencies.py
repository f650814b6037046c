import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "submatch"


def package_nodes():
    """(file name, node) of every AST node in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def imports():
    """(file name, line, top-level module) of each import in the package; a
    relative import names the package itself, submatch."""
    for file, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["submatch" if node.level else node.module]
        else:
            continue
        for name in names:
            yield file, node.lineno, name.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    foreign = [f"{file}:{line} imports {top}" for file, line, top in imports()
               if top not in ("numpy", "submatch") and top not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_tape_is_generic():
    """autodiff.py imports no other submatch module, so no op on the tape
    knows the encoder, the energy or the loss."""
    found = [f"{file}:{line} imports {top}" for file, line, top in imports()
             if file == "autodiff.py" and top == "submatch"]
    assert not found, found


def test_one_energy_reduction():
    """E is reduced only by order._squared_norms: no einsum, dot, vdot or
    inner call, as np.dot(a, b) or as a.dot(b), anywhere in the package."""
    calls = [f"{file}:{node.lineno} calls {node.func.attr}" for file, node in package_nodes()
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("einsum", "dot", "vdot", "inner")]
    assert not calls, calls


def test_one_scatter_primitive():
    """Scatter-adds go through autodiff.RankPlan.sum: no ufunc .at() loops and
    no weighted np.bincount."""
    calls = []
    for file, node in package_nodes():
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "at":
            calls.append(f"{file}:{node.lineno} calls .at()")
        if node.func.attr == "bincount" and (
                len(node.args) > 1 or any(k.arg == "weights" for k in node.keywords)):
            calls.append(f"{file}:{node.lineno} calls bincount with weights")
    assert not calls, calls


def test_one_bfs_queue():
    """Hop distances come from LabeledGraph.bfs_distances, which walks by
    levels; no module imports the deque a queue BFS would need."""
    found = [f"{file}:{node.lineno} imports deque" for file, node in package_nodes()
             if isinstance(node, ast.ImportFrom) and node.module == "collections"
             and any(alias.name == "deque" for alias in node.names)]
    assert not found, found


def test_one_ctypes_import():
    """The platform-specific allocator call stays in util.py: no other module
    imports ctypes."""
    found = [f"{file}:{line} imports ctypes" for file, line, top in imports()
             if top == "ctypes" and file != "util.py"]
    assert not found, found


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
    for file, node in package_nodes():
        if file != "query.py" and isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ONLINE_STEPS:
                calls.append(f"{file}:{node.lineno} calls {name}")
    assert not calls, calls
