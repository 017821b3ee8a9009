import ast
import tokenize
from pathlib import Path

import pytest

import vcube

# CPython's parser allocates its token structs in doubling batches: a
# module past 4,096 tokens costs about 256 KiB more to compile, which
# every fresh import pays in peak RSS (ROADMAP, Known gaps).
TOKEN_LIMIT = 4096
MODULES = sorted(Path(vcube.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_stays_under_the_parser_token_batch(path):
    with path.open("rb") as f:
        tokens = sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL)
            for tok in tokenize.tokenize(f.readline)
        )
    assert tokens < TOKEN_LIMIT, (path.name, tokens)


# Every guarded computation refuses through `errors.Budget`; only the hard
# n guards that stand in front of a count too large to build raise alone.
BUDGET_RAISERS = {
    ("errors.py", "Budget.refuse_if"),
    ("errors.py", "Budget.tick"),
    ("counting.py", "exact_exvc"),
    ("integrity.py", "exact_integrity"),
    ("matchings.py", "enumerate_induced_matchings"),
}


def _budget_raisers(path):
    """(file, qualified def name) of each `raise BudgetError` in a module."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = getattr(exc, "id", getattr(exc, "attr", None))
                if name == "BudgetError":
                    found.add((path.name, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(path.read_text()), [])
    return found


def test_budget_errors_are_raised_by_budget_or_an_n_guard():
    found = set().union(*map(_budget_raisers, MODULES))
    own = {("errors.py", "Budget.refuse_if"), ("errors.py", "Budget.tick")}
    assert own <= found
    assert found <= BUDGET_RAISERS, found - BUDGET_RAISERS
