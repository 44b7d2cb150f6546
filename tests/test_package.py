import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cardcsp"


def _unbounded_caches(tree):
    """Lines of functools.cache or lru_cache(maxsize=None) uses in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name == "cache":
                    yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name != "lru_cache":
                continue
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                yield node.lineno


def test_every_cache_in_the_package_is_bounded():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _unbounded_caches(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_cache_check_sees_each_unbounded_spelling():
    for source in ("from functools import cache", "import functools\n@functools.cache\ndef f(): pass",
                   "@lru_cache(maxsize=None)\ndef f(): pass", "g = functools.lru_cache(None)(f)"):
        assert list(_unbounded_caches(ast.parse(source)))
    for source in ("@lru_cache(maxsize=64)\ndef f(): pass", "g = lru_cache(maxsize=256)(f)",
                   "from functools import cached_property, lru_cache"):
        assert not list(_unbounded_caches(ast.parse(source)))


def _private_definitions(tree):
    """(name, node) for each top-level name tree defines with one leading
    underscore: functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unreferenced_private_names(trees):
    """The top-level private names of trees that no code in trees reads
    (a Name or an attribute) outside the name's own definition; a mention
    in a docstring or a comment is not a read."""
    reads = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)):
                reads.setdefault(name, []).append(id(node))
    found = []
    for tree in trees:
        for name, own in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(own)}
            if all(read in inside for read in reads.get(name, ())):
                found.append(name)
    return found


def test_every_private_name_in_the_package_is_used_by_the_package():
    # a helper that only tests still call belongs in the tests
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    assert _unreferenced_private_names(trees) == []


def test_the_private_name_check_counts_only_reads_outside_the_definition():
    source = '''
def _helper():
    """Unlike _orphan, called below."""
    return 1


def _recursive(k):
    return _recursive(k - 1) if k else 0


def _orphan():
    pass


_TABLE = {}
_UNUSED = 3
VALUE = _helper() + len(_TABLE)
'''
    assert _unreferenced_private_names([ast.parse(source)]) == ["_recursive", "_orphan", "_UNUSED"]


# the one implementation of the constraint product reads these; every other
# module forms the product through times_constraint_table or
# reduce_by_constraint
PRODUCT_HALVES = {"up", "down", "_flip_each"}


def _product_half_reads(tree):
    """Lines where tree imports a name of PRODUCT_HALVES or reads one as
    an attribute, such as poly.up."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name in PRODUCT_HALVES for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCT_HALVES:
            yield node.lineno


def test_only_poly_reads_the_halves_of_the_constraint_product():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "poly.py"
             for line in _product_half_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_the_product_half_check_sees_an_import_and_an_attribute():
    for source in ("from .poly import reduce_by_constraint, up", "from .poly import down as d",
                   "from . import poly\nx = poly.down(t)", "y = poly._flip_each(t, 0)"):
        assert list(_product_half_reads(ast.parse(source)))
    for source in ("from .poly import times_constraint_table", "up = 1\ndown = up + 1",
                   "x = poly.times_constraint_table(t, n, 0)"):
        assert not list(_product_half_reads(ast.parse(source)))


# the modules whose exact values the oracle checks; it computes without them
SOLVER_CORES = {"cardinal_dist", "spectra", "solver", "rounding"}


def _core_imports(tree):
    """Lines where tree imports a module of SOLVER_CORES or a name from
    one, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(SOLVER_CORES.intersection(name.split(".")) for name in names):
            yield node.lineno


def test_the_oracle_imports_no_solver_core():
    path = SRC / "oracle.py"
    assert list(_core_imports(ast.parse(path.read_text(), str(path)))) == []


def test_the_core_import_check_sees_each_spelling():
    for source in ("from .solver import decide", "from . import spectra",
                   "from cardcsp.rounding import round_global", "import cardcsp.cardinal_dist as cd",
                   "from cardcsp import solver", "def f():\n    from .spectra import project_null"):
        assert list(_core_imports(ast.parse(source)))
    for source in ("from .csp_model import GlobalCardinality", "from .poly import basis_constants",
                   "from fractions import Fraction", "import math", "solver = 1"):
        assert not list(_core_imports(ast.parse(source)))
