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
