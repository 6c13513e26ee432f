"""Every engine stage is a Ray Data task stage.

No ``map_batches`` call in the package starts an actor pool (a class, its
constructor arguments or a ``concurrency`` pool size), and no function takes
a ``concurrency`` option.
"""

import ast
import pathlib

import distributed_text_search_ray

PACKAGE = pathlib.Path(distributed_text_search_ray.__file__).parent
POOL_KEYWORDS = {"fn_constructor_args", "fn_constructor_kwargs", "concurrency"}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE.parent), ast.parse(path.read_text())


def _is_class(node, classes) -> bool:
    return isinstance(node, ast.Name) and (node.id in classes or node.id[:1].isupper())


def test_no_map_batches_call_starts_an_actor_pool():
    sites = []
    for path, tree in _modules():
        classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
        for call in ast.walk(tree):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "map_batches"
            ):
                continue
            fns = call.args[:1] + [k.value for k in call.keywords if k.arg == "fn"]
            pool_kw = sorted(k.arg for k in call.keywords if k.arg in POOL_KEYWORDS)
            if pool_kw or any(_is_class(f, classes) for f in fns):
                sites.append(f"{path}:{call.lineno} {pool_kw}")
    assert sites == []


def test_no_function_takes_a_concurrency_option():
    found = []
    for path, tree in _modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
                if "concurrency" in names:
                    found.append(f"{path}:{fn.lineno} {getattr(fn, 'name', 'lambda')}")
    assert found == []
