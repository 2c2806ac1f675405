"""Production code carries no helper that only tests call.

Every top-level function and class in ``src/hamdecomp``, and every method
of those classes, must be referenced by code somewhere in ``src/``,
``perfbench/`` or ``scripts/``: as a name, an attribute or an imported
name.  Comments, docstrings and other strings do not count, and neither
does code inside a definition that is itself test-only, so a helper that
only test-only code calls is test-only too (found by dropping test-only
definitions until none is left to drop).  The exceptions are the
reference oracles that tests compare the pipeline against.

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
