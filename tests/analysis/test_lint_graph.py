"""Unit tests for the cross-module project graph the dataflow rules share."""

from repro.analysis.graph import build_graph
from repro.analysis.lint import collect_files


def _graph(root):
    files = collect_files([root / "src"], root)
    return build_graph(files)


def test_symbols_bindings_and_alias_chains(make_project):
    root = make_project(
        {
            "src/repro/pkg/__init__.py": """\
            from repro.pkg.impl import helper
            """,
            "src/repro/pkg/impl.py": """\
            def helper():
                return 1
            """,
            "src/repro/user.py": """\
            from repro.pkg import helper

            def call():
                return helper()
            """,
        }
    )
    graph = _graph(root)
    assert "repro.pkg.impl.helper" in graph.functions
    # The re-export through the package façade resolves to the impl.
    assert graph.calls["repro.user.call"] == {"repro.pkg.impl.helper"}


def test_relative_imports_resolve(make_project):
    root = make_project(
        {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/a.py": """\
            def leaf():
                return 0
            """,
            "src/repro/pkg/b.py": """\
            from .a import leaf

            def caller():
                return leaf()
            """,
        }
    )
    graph = _graph(root)
    assert graph.calls["repro.pkg.b.caller"] == {"repro.pkg.a.leaf"}


def test_self_method_and_constructor_typed_locals(make_project):
    root = make_project(
        {
            "src/repro/mod.py": """\
            class Worker:
                def run(self):
                    return self.step()

                def step(self):
                    return 1

            def drive():
                w = Worker()
                return w.run()
            """,
        }
    )
    graph = _graph(root)
    assert graph.calls["repro.mod.Worker.run"] == {"repro.mod.Worker.step"}
    # drive() gets an edge for the constructor call and the method call.
    assert "repro.mod.Worker.run" in graph.calls["repro.mod.drive"]


def test_inherited_methods_resolve_through_bases(make_project):
    root = make_project(
        {
            "src/repro/base.py": """\
            class Base:
                def shared(self):
                    return 1
            """,
            "src/repro/child.py": """\
            from repro.base import Base

            class Child(Base):
                def run(self):
                    return self.shared()
            """,
        }
    )
    graph = _graph(root)
    assert graph.calls["repro.child.Child.run"] == {"repro.base.Base.shared"}


def test_thread_targets_and_dispatch_table_references(make_project):
    root = make_project(
        {
            "src/repro/mod.py": """\
            import threading

            def _loop():
                return 1

            def _stage_a():
                return 2

            def start():
                return threading.Thread(target=_loop)

            def dispatch(name):
                table = {"a": _stage_a}
                return table[name]()
            """,
        }
    )
    graph = _graph(root)
    assert "repro.mod._loop" in graph.thread_targets
    # Load-context references (dispatch tables) become call edges.
    assert "repro.mod._stage_a" in graph.calls["repro.mod.dispatch"]
    # But a mere dict reference is not a thread target.
    assert "repro.mod._stage_a" not in graph.thread_targets


def test_reachability_walk(make_project):
    root = make_project(
        {
            "src/repro/mod.py": """\
            def entry():
                return middle()

            def middle():
                return leaf()

            def leaf():
                return 0

            def unreachable():
                return leaf()
            """,
        }
    )
    graph = _graph(root)
    reached = graph.reachable(["repro.mod.entry"])
    assert {"repro.mod.entry", "repro.mod.middle", "repro.mod.leaf"} <= reached
    assert "repro.mod.unreachable" not in reached


def test_function_local_imports_bind_for_that_function_only(make_project):
    root = make_project(
        {
            "src/repro/m.py": """\
            def f():
                return 0
            """,
            "src/repro/user.py": """\
            def lazy():
                from repro.m import f
                return f()

            def other():
                return f()
            """,
        }
    )
    graph = _graph(root)
    assert graph.calls["repro.user.lazy"] == {"repro.m.f"}
    assert "repro.m.f" in graph.reachable(["repro.user.lazy"])
    # The lazy import does not leak into the module's other functions.
    assert graph.calls["repro.user.other"] == set()
    assert "f" not in graph.modules["repro.user"].bindings


def test_mutable_globals_and_self_attr_types(make_project):
    root = make_project(
        {
            "src/repro/store.py": """\
            class Store:
                pass
            """,
            "src/repro/svc.py": """\
            from repro.store import Store

            CACHE = {}
            LIMIT = 3

            class Service:
                def __init__(self):
                    self.store = Store()
            """,
        }
    )
    graph = _graph(root)
    module = graph.modules["repro.svc"]
    assert "CACHE" in module.mutable_globals
    assert "LIMIT" not in module.mutable_globals
    info = graph.classes["repro.svc.Service"]
    types = graph.self_attr_types("repro.svc", info)
    assert graph.canonical(types["store"]) == "repro.store.Store"
