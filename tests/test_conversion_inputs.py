"""Conversion tests take their 2-factors from the committed fixture.

``tests/test_rotation.py`` pins conversion (``CONVERSION_DIGESTS``,
``AUDIT_VERDICTS``, ``AUDIT_DIGESTS``) on 2-factors read through
``scenario()`` from ``tests/scenario_factors.json``.  If its code ran
extraction or peeling again, a change to the front would move those pins.
"""
import ast
from pathlib import Path

FRONT = {"extract_with_retry", "extract_r_factor", "peel_all"}


def code_names(source: str) -> set[str]:
    """Every name the code of ``source`` uses or binds: names, attributes,
    imports, definitions, parameters and keywords; strings do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_code_names_reads_code_not_strings():
    source = '''
"""peel_all is named here only in a docstring."""
from hamdecomp.factors import extract_with_retry as ewr
import hamdecomp.twofactor
def f(extract_r_factor=None):
    return hamdecomp.twofactor.peel_all, "extract_r_factor", ewr
'''
    assert code_names(source) & FRONT == FRONT
    assert code_names('"""peel_all"""\nx = "extract_with_retry"  # extract_r_factor\n') & FRONT == set()


def test_conversion_tests_do_not_run_the_front():
    source = Path(__file__).with_name("test_rotation.py").read_text()
    assert code_names(source) & FRONT == set()
