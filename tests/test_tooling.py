"""Source hygiene: every module-level import in the package is read by its
module, no package module is imported below module level (where it would
hide an import cycle), every module-level private name is read somewhere in
the package, every public function, class and method is read by the package
or the benchmark, only ``geometry`` imports scipy's rotations and only the demo
builds per-step ``Observation`` views, scipy's checked ``from_matrix`` (on the
public ``Rotation`` or the compiled backend) is reached only through the one
guarded helper and ``betaincinv`` only through the certified argmax's
fallback, only the one query function opens gateway sessions, every name
the benchmark imports from the package resolves, the names the benchmark
rebinds in ``demoforge.campaign`` still exist and are read there, importing
the package leaves ``scipy.stats`` unloaded, the benchmark's own
self-tests pass against the package, only the world builds unchecked
poses, only the reattach scan writes the ensemble's anchor and only its
pre-check reads it, and no package module imports an unseeded source of
randomness."""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import demoforge.campaign as campaign

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "demoforge"


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_checker_flags_only_unread_names():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\nx = np.pi + c\n"
    assert unused_imports(source) == ["b (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``_``-prefixed functions, classes and assignments at module level
    (dunders aside) that no module of ``sources`` (name -> text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                stores = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [n.id for t in stores for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in targets:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{module}.{name}"] = (name, node.lineno)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{key} (line {line})" for key, (name, line) in sorted(defined.items()) if name not in read]


def test_private_checker_flags_only_unread_names():
    sources = {
        "a": "_used = 1\n_unused = 2\n__all__ = []\n_p, _q = 3, 4\n"
        "def _f():\n    return _used + _p\nclass _C:\n    pass\n",
        "b": "import a\nfrom a import _f\nx = _f() + a._q\n",
    }
    assert unread_private_names(sources) == ["a._C (line 7)", "a._unused (line 2)"]


def test_no_unread_module_level_private_name():
    assert unread_private_names({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def unread_public_names(defined: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Public functions, classes and methods of ``defined`` (module name ->
    text) that no module of ``readers`` reads by name, attribute or
    ``from ... import``. Dunders and click-registered commands do not count."""

    def is_command(node):
        return any(
            isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
            for d in node.decorator_list
        )

    found = {}

    def collect(module, body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") or is_command(node):
                    continue
                found[f"{module}.{prefix}{node.name}"] = (node.name, node.lineno)
                if isinstance(node, ast.ClassDef):
                    collect(module, node.body, f"{prefix}{node.name}.")

    for module, text in defined.items():
        collect(module, ast.parse(text).body, "")
    read = set()
    for text in readers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{key} (line {line})" for key, (name, line) in sorted(found.items()) if name not in read]


def test_public_checker_flags_only_unread_names():
    sources = {
        "a": "def used():\n    pass\ndef unused():\n    pass\ndef __getattr__(name):\n    pass\n"
        "class C:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "@main.command()\ndef run():\n    pass\ndef _private():\n    pass\n",
        "b": "from a import C\nx = C().m()\n",
        "c": "import a\na.used()\n",
    }
    assert unread_public_names(sources, sources) == ["a.C.n (line 10)", "a.unused (line 3)"]
    assert unread_public_names({"a": sources["a"]}, {"b": sources["b"]}) == [
        "a.C.n (line 10)", "a.unused (line 3)", "a.used (line 1)"
    ]


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    # a public name that only tests read is code kept alive for its tests
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    bench = {f"bench/{p.name}": p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))}
    assert unread_public_names(package, package | bench) == []


def scoped_reads(tree: ast.AST, matches) -> list[str]:
    """The enclosing def or class path of each node that ``matches``."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if matches(node):
            reads.append(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return reads


def attribute_reads(tree: ast.AST, attr: str, on=None, ctx=ast.expr_context) -> list[str]:
    """The enclosing def or class path of each read of ``.attr``, on any
    object or, given the set ``on``, only on a bare name in it; given
    ``ctx`` (``ast.Load`` or ``ast.Store``), only its loads or its stores."""
    return scoped_reads(
        tree,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.ctx, ctx)
        and (on is None or isinstance(node.value, ast.Name) and node.value.id in on),
    )


SCIPY_FROM_MATRIX_OWNERS = {"scipy.spatial.transform.Rotation", "scipy.spatial.transform._rotation_cy"}


def scipy_from_matrix_reads(source: str) -> list[str]:
    """The enclosing def or class path of each ``from_matrix`` read on scipy's
    ``Rotation`` or on its compiled backend ``_rotation_cy``, reached through a
    name the module binds by ``import`` or ``from ... import``."""
    tree = ast.parse(source)
    bound = {}  # local name -> the dotted path it names
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            bound.update({a.asname: a.name for a in node.names if a.asname})
            bound.update({a.name.split(".")[0]: a.name.split(".")[0] for a in node.names if not a.asname})

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    return scoped_reads(
        tree,
        lambda node: isinstance(node, ast.Attribute)
        and node.attr == "from_matrix"
        and dotted(node.value) in SCIPY_FROM_MATRIX_OWNERS,
    )


def test_from_matrix_checker_flags_reads_on_scipy_rotation_only():
    source = (
        "from scipy.spatial.transform import Rotation as _SR\nfrom mine import Rotation\n"
        "x = _SR.from_matrix\nclass C:\n    def f(self, m):\n        return _SR.from_matrix(m, assume_valid=True)\n"
        "def g(m):\n    return Rotation.from_matrix(m)\n"
    )
    assert scipy_from_matrix_reads(source) == ["<module>", "C.f"]


def test_from_matrix_checker_flags_reads_on_scipy_backend():
    source = (
        "from scipy.spatial.transform import _rotation_cy as _backend\n"
        "import scipy.spatial.transform._rotation_cy as cy\nimport scipy.spatial.transform._rotation_cy\n"
        "from mine import _rotation_cy\n"
        "def f(m):\n    return _backend.from_matrix(m, assume_valid=True)\n"
        "class C:\n    def g(self, m):\n        return cy.from_matrix(m)\n"
        "    def h(self, m):\n        return scipy.spatial.transform._rotation_cy.from_matrix(m)\n"
        "def k(m):\n    return _rotation_cy.from_matrix(m), _backend.from_rotvec(m)\n"
    )
    assert scipy_from_matrix_reads(source) == ["f", "C.g", "C.h"]


def test_only_the_guarded_helper_calls_scipy_from_matrix():
    # scipy re-checks every matrix it is given; the helper skips that check
    # only where it provably passes, so no other module may pay it again
    reads = {p.stem: scipy_from_matrix_reads(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == {"geometry": ["matrix_quats"]}


def scipy_transform_imports(source: str) -> list[str]:
    """The enclosing def or class path of each import of ``scipy.spatial.transform``
    or a module below it, by ``import`` or ``from ... import``."""

    def names_transform(node):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            return False
        return any(m == "scipy.spatial.transform" or m.startswith("scipy.spatial.transform.") for m in modules)

    return scoped_reads(ast.parse(source), names_transform)


def test_scipy_transform_checker_flags_every_import_form():
    source = (
        "from scipy.spatial.transform import Rotation as _SR\nimport scipy.spatial\nfrom scipy.spatial import distance\n"
        "def f():\n    from scipy.spatial import transform\n"
        "class C:\n    def m(self):\n        import scipy.spatial.transform._rotation_cy as cy\n"
        "from scipy.spatial.transformer import x\n"
    )
    assert scipy_transform_imports(source) == ["<module>", "f", "C.m"]


def test_only_geometry_imports_scipy_rotations():
    # one module knows scipy's rotation API, so a change of backend or of
    # scipy's dispatch touches one file
    reads = {p.stem: scipy_transform_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == {"geometry": ["<module>"]}


def observation_constructions(source: str) -> list[str]:
    """The enclosing def or class path of each call of a name or attribute
    ``Observation`` or ``ObjectObservation``."""

    def constructs(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        return name in ("Observation", "ObjectObservation")

    return scoped_reads(ast.parse(source), constructs)


def test_observation_checker_flags_calls_only():
    source = (
        "from .demos import Observation, SceneObservation\nx = Observation\n"
        "def f(demos):\n    return demos.ObjectObservation('a', None)\n"
        "class C:\n    def m(self):\n        return [Observation(p, 0.0), SceneObservation(p)]\n"
    )
    assert observation_constructions(source) == ["f", "C.m"]


def test_only_the_demo_builds_per_step_observations():
    # annotators read the demo's columns; the per-step views are built in
    # one place, for readers of Demonstration.steps
    reads = {p.stem: observation_constructions(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == {
        "demos": ["Demonstration.observation", "Demonstration.observation"]
    }


def betaincinv_reads(source: str) -> list[str]:
    """The enclosing def or class path of each read of scipy's ``betaincinv``:
    a name bound by ``from scipy.special import``, or any ``.betaincinv``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special"
        for alias in node.names
        if alias.name == "betaincinv"
    }
    return scoped_reads(
        tree,
        lambda node: isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in aliases
        or isinstance(node, ast.Attribute) and node.attr == "betaincinv",
    )


def test_betaincinv_checker_flags_bound_names_and_attributes():
    source = (
        "from scipy.special import betaincinv as inv, betainc\nimport scipy.special\n"
        "def guess(a, b, u):\n    return betainc(a, b, u)\n"
        "class C:\n    def f(self, a, b, u):\n        return inv(a, b, u)\n"
        "def g(a, b, u):\n    return scipy.special.betaincinv(a, b, u)\n"
        "def betaincinv(a, b, u):\n    return None\n"
    )
    assert betaincinv_reads(source) == ["C.f", "g"]


def test_only_the_certified_argmax_fallback_inverts_posteriors():
    # the add-arm simulation inverts a posterior draw only where betainc
    # cannot certify the cheap guess's argmax; a second call site would pay
    # the full inversion cost again without that proof
    reads = {p.stem: betaincinv_reads(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == {"bandit": ["_posterior_argmax"]}


def test_fresh_session_checker_flags_every_read():
    source = (
        "def query(gateway):\n    return gateway.fresh_session().complete('p')\n"
        "class Stage:\n    def run(self):\n        make = self.gateway.fresh_session\n        return make()\n"
        "def fresh_session():\n    return None\n"
    )
    assert attribute_reads(ast.parse(source), "fresh_session") == ["query", "Stage.run"]


def test_only_the_query_function_opens_sessions():
    # every LLM call restarts, gives up and fails the same way, because
    # only the one query loop mints sessions
    reads = {p.stem: attribute_reads(ast.parse(p.read_text()), "fresh_session") for p in sorted(PACKAGE.glob("*.py"))}
    assert {module: found for module, found in reads.items() if found} == {"gateway": ["query"]}


def test_unchecked_pose_checker_flags_every_read():
    source = (
        "def step(p, r):\n    return Pose.unchecked(p, r)\n"
        "class World:\n    def move(self, p, r):\n        make = geometry.Pose.unchecked\n        return make(p, r)\n"
        "def checked(p):\n    return Pose(p)\n"
    )
    assert attribute_reads(ast.parse(source), "unchecked") == ["step", "World.move"]


def test_only_the_world_builds_unchecked_poses():
    # outside input (a dataset line, an LLM reply, a config, a caller's pose) enters through
    # campaign, annotation, retargeting, gateway and ensemble, so every pose built there takes
    # Pose(...)'s copy and finiteness check; geometry defines the unchecked build, the world uses it
    reads = {p.stem: attribute_reads(ast.parse(p.read_text()), "unchecked") for p in sorted(PACKAGE.glob("*.py"))}
    callers = {module for module, found in reads.items() if found}
    assert callers <= {"geometry", "simworld"} and "simworld" in callers
    assert not callers & {"campaign", "annotation", "retargeting", "gateway", "ensemble"}


def test_anchor_checker_tells_stores_from_loads():
    source = (
        "def scan(state):\n    state.anchor = (0, 1.0)\n    return state.anchor[1]\n"
        "class Step:\n    def check(self):\n        return self.state.anchor is None\n"
        "def anchor(state):\n    return state\n"
    )
    tree = ast.parse(source)
    assert attribute_reads(tree, "anchor", ctx=ast.Store) == ["scan"]
    assert attribute_reads(tree, "anchor", ctx=ast.Load) == ["scan", "Step.check"]


def test_only_the_scan_writes_the_anchor_and_only_the_precheck_reads_it():
    # EnsembleState.anchor is a proof: select_reattach stores a suffix bound's minimum there and
    # _scan_proved_empty spends it, with the margins for the arm's moves since; any other writer or
    # reader would hold or spend a proof those two functions do not check
    found = {}
    for p in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(p.read_text())
        for ctx in (ast.Store, ast.Load):
            if scopes := attribute_reads(tree, "anchor", ctx=ctx):
                found[p.stem, ctx.__name__] = sorted(set(scopes))
    assert found == {("ensemble", "Store"): ["select_reattach"], ("ensemble", "Load"): ["_scan_proved_empty"]}


def package_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for each name of a ``from demoforge... import`` and
    (module, None) for each ``import demoforge...``, at any depth of ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "demoforge":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "demoforge"]
    return found


def test_package_import_checker_finds_nested_imports():
    source = (
        "import os\nimport demoforge.campaign as c\nfrom demoforgery import x\n"
        "def f():\n    from demoforge.annotation import a, b as c\n    from demoforge import bandit\n"
    )
    assert package_imports(source) == [
        ("demoforge.campaign", None), ("demoforge.annotation", "a"), ("demoforge.annotation", "b"), ("demoforge", "bandit"),
    ]


def nested_package_imports(source: str) -> list[str]:
    """The enclosing def or class path of each import of a ``demoforge``
    module, relative or absolute, made below module level."""

    def imports_package(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or node.module.split(".")[0] == "demoforge"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "demoforge" for a in node.names)

    return [scope for scope in scoped_reads(ast.parse(source), imports_package) if scope != "<module>"]


def test_nested_import_checker_flags_package_modules_only():
    source = (
        "from .geometry import Pose\nimport demoforge.bandit\n"
        "def f():\n    from .simworld import BUNDLED_TASKS\n    from importlib import resources\n"
        "class C:\n    def m(self):\n        import demoforge.campaign\n        from demoforgery import x\n"
        "def g():\n    from . import demos\n"
    )
    assert nested_package_imports(source) == ["f", "C.m", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_level_package_import(path):
    # a package import deferred into a function hides an import cycle
    assert nested_package_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unseeded_randomness_import(path):
    # every draw comes from a numpy generator seeded off the config, so a campaign's bytes are its config's
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert not imported & {"uuid", "random", "secrets"}


def test_bench_package_imports_resolve():
    # the benchmark imports some names inside functions (session.py's fault
    # exceptions among them): deleting one must fail here, not in a benchmark run
    imports = [(p.name, *found) for p in sorted((ROOT / "bench").glob("*.py")) for found in package_imports(p.read_text())]
    missing = []
    for file, module, name in imports:
        try:
            target = importlib.import_module(module)
            if name is not None and not hasattr(target, name):
                importlib.import_module(f"{module}.{name}")  # a submodule not yet imported
        except ImportError:
            missing.append(f"{file}: {module}" + (f".{name}" if name else ""))
    assert imports and missing == []


def test_bench_rebinding_targets_exist(monkeypatch):
    # the benchmark wraps these names in the campaign module and reads these
    # arguments by name; a rename would silently drop its spans, and so would
    # a name that campaign.py no longer calls through its module global
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    tree = ast.parse((PACKAGE / "campaign.py").read_text())
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for name in tracing.TRACE_TARGETS:
        assert callable(getattr(campaign, name, None)), name
        assert name in loaded, f"campaign.py never reads {name}"
    assert {"state", "T", "prior", "k", "rng"} <= set(inspect.signature(campaign.decide_new_arm).parameters)
    assert "path" in inspect.signature(campaign.read_dataset).parameters


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow and large to import, and the package needs none of it; requests and scipy.optimize are
    # slow too, and imported only by the HTTP gateway's completion and the prior fit that use them
    code = (
        "import sys, demoforge.campaign, demoforge.cli\n"
        "for name in ('scipy.stats', 'scipy.optimize', 'requests'):\n"
        "    assert name not in sys.modules, name"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_bench_selftest_passes():
    # each of the benchmark's output checks must still reject a broken output
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_bench_traced_gateway_spans_a_completion(monkeypatch, audit_log):
    # under --trace 1 the benchmark wraps each session's complete and passes
    # attachments by position: a change to that signature must fail here, not
    # in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracing = importlib.import_module("tracing")
    from demoforge.gateway import AuditLog, MockGateway, query

    class Clock:
        ticks = iter(range(1000))

        def now(self):
            return float(next(self.ticks))

    recorder = tracing.Recorder(Clock(), trace=True)
    gateway = MockGateway(responder=lambda prompt: "reply", audit_log=audit_log)
    recorder.instrument_gateway(gateway)
    assert query(gateway, "prompt", str.upper, temperature=0.0, failure=RuntimeError) == "REPLY"
    assert [(span.name, span.t0 < span.t1) for span in recorder.spans] == [("gateway.complete", True)]
    assert [e.request for e in AuditLog.read(audit_log.path)] == ["prompt"]
