"""Production code carries no helper that only tests call.

Every top-level function and class in ``src/hamdecomp``, and every method
of those classes, must be referenced by code somewhere in ``src/``,
``perfbench/`` or ``scripts/``: as a name, an attribute or an imported
name.  Comments, docstrings and other strings do not count, and neither
does code inside a definition that is itself test-only, so a helper that
only test-only code calls is test-only too (found by dropping test-only
definitions until none is left to drop).  The exceptions are the
reference oracles that tests compare the pipeline against.

The same goes for parameters with a default: each must be passed, by
keyword or by position, by some call in those three roots to a function of
that name (a class's ``__init__`` by a call to the class).  A default that
no such call overrides is a setting only tests change.  The exceptions are
allowlisted with the test that needs them.

The scan matches names, not what they resolve to, so it misses a test-only
method whose name is a common word (a method ``add`` is referenced by every
``set.add``) or is shared with another definition (two ``to_json_obj``
methods reference each other).  Such helpers are left for review to catch.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> why only tests call it
REFERENCE_ORACLES = {
    "factors.tutte_quantities": "R_r(S,T) and Q_r(S,T) of one partition, "
                                "checked against the exhaustive oracle",
    "factors.tutte_check_exhaustive": "exhaustive r-factor existence oracle",
    "factors.TutteVerdict": "the verdict that `tutte_check_exhaustive` returns",
    "matching.brute_max_matching_size": "exhaustive maximum-matching oracle",
    "oracles.ordered_2factor_count": "closed-form 2-factor counts for the census",
    "oracles.FactorCensus.at_least": "census tail counts",
    "graph.Graph.from_text": "reads back the edge list that `run --graph-out` writes",
    "graph.Graph.components": "the components of G[U], for the odd-component count of "
                              "`tutte_quantities`",
    "rotation.replay": "re-applies a transcript to its factor, to compare with the "
                       "converted cycle (criterion 5)",
    "graph.cycle_cover_edges": "the (u, v) tuple edge set that criterion 3 and "
                               "`cover_checks` compare against",
}

# "module.function(parameter)" -> why only tests pass it
TEST_SET_DEFAULTS = {
    "cli.main(argv)": "tests drive the command line in-process",
    "graph.Graph.__init__(edges)": "criteria 2, 4, 5 and 7 build graphs from edge lists",
    "rotation.convert_all(mode)": "criterion 7 passes mode=\"report\"",
}


def parsed() -> dict[Path, ast.Module]:
    """The syntax tree of every Python file under the three code roots."""
    return {
        path: ast.parse(path.read_text())
        for top in ("src", "perfbench", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
    }


def definitions(trees: dict[Path, ast.Module]) -> list[tuple[str, str, ast.AST]]:
    """(qualified name, bare name, node) of each top-level def and class of
    the package and of each method of those classes, dunders left out."""
    out = []
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "hamdecomp":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((f"{path.stem}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{path.stem}.{node.name}.{sub.name}", sub.name, sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                )
    return out


def references(tree: ast.AST, skip: frozenset = frozenset()) -> Counter:
    """How often code in ``tree`` references each name: variables, attributes
    and imported names; definitions, comments and strings are left out, and
    so is every node in ``skip`` with all it holds."""
    refs: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        stack.extend(ast.iter_child_nodes(node))
    return refs


def named_only_by_tests() -> list[str]:
    trees = parsed()
    defs = definitions(trees)
    test_only: list[str] = []
    while True:
        skip = frozenset(node for q, _, node in defs if q in test_only)
        refs: Counter = Counter()
        for tree in trees.values():
            refs += references(tree, skip)
        found = [q for q, name, _ in defs if not refs[name]]
        if found == test_only:
            return found
        test_only = found


def test_references_skip_prose_and_definitions():
    tree = ast.parse('''"""replay"""
# replay
def replay():
    return "replay"
import a.b.imported
from c import from_imported
x = f"{in_fstring()}"
obj.attribute
''')
    refs = references(tree)
    assert refs["replay"] == 0
    assert all(refs[n] == 1 for n in ("imported", "from_imported", "in_fstring", "attribute"))


def test_scan_sees_the_package():
    names = {q for q, _, _ in definitions(parsed())}
    assert {"rotation.convert_all", "graph.Graph.add_edge", "matching.bipartite_b_matching"} <= names


def test_only_reference_oracles_are_test_only():
    unused = named_only_by_tests()
    assert sorted(set(unused) - REFERENCE_ORACLES.keys()) == []


def test_every_allowlisted_oracle_exists_and_is_test_only():
    # an entry whose code is gone, or now used by the pipeline, goes too
    assert sorted(REFERENCE_ORACLES.keys() - set(named_only_by_tests())) == []


def defaulted_parameters(trees: dict[Path, ast.Module]) -> list[tuple[str, str, str, int | None]]:
    """(qualified function name, name a call uses, parameter, position in
    a call or None for keyword-only) of each parameter with a default of
    the package's top-level functions and their classes' methods."""
    defs = definitions(trees)
    inits = [(f"{q}.__init__", name, sub)
             for q, name, cls in defs if isinstance(cls, ast.ClassDef)
             for sub in cls.body if isinstance(sub, ast.FunctionDef) and sub.name == "__init__"]
    out = []
    for q, name, node in defs + inits:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        # a method call passes self (or cls) implicitly
        shift = 1 if positional and positional[0].arg in ("self", "cls") else 0
        first = len(positional) - len(args.defaults)
        out.extend((q, name, a.arg, i - shift)
                   for i, a in enumerate(positional) if i >= first)
        out.extend((q, name, a.arg, None)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return out


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``**``, at its
    position, or through a ``*`` argument at or before that position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) or i == position
               for i, a in enumerate(call.args[: position + 1]))


def defaults_only_tests_set() -> list[str]:
    trees = parsed()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return [f"{q}({param})" for q, name, param, pos in defaulted_parameters(trees)
            if not any(passes(c, param, pos) for c in calls.get(name, []))]


def test_passes_matches_keywords_positions_and_unpacking():
    call = ast.parse("f(a, b, key=1)").body[0].value
    assert passes(call, "key", None) and passes(call, "x", 1) and not passes(call, "x", 2)
    assert not passes(call, "other", None)
    assert passes(ast.parse("f(*args)").body[0].value, "x", 3)
    assert passes(ast.parse("f(**kw)").body[0].value, "other", None)


def test_scan_sees_defaulted_parameters():
    found = {(q, p) for q, _, p, _ in defaulted_parameters(parsed())}
    assert {("rotation.convert_all", "audit"), ("graph.Graph.__init__", "edges"),
            ("cli.main", "argv")} <= found


def test_only_allowlisted_defaults_are_set_only_by_tests():
    assert sorted(set(defaults_only_tests_set()) - TEST_SET_DEFAULTS.keys()) == []


def test_every_allowlisted_default_is_set_only_by_tests():
    assert sorted(TEST_SET_DEFAULTS.keys() - set(defaults_only_tests_set())) == []
