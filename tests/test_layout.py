"""Source layout rules that keep each module's private tables behind that module."""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kgembed")


def modules():
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                yield fname, ast.parse(fh.read(), filename=fname)


def test_no_private_name_imported_from_a_sibling_module():
    found = []
    for fname, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{fname}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found, found


def add_at_calls(fname, node, where="<module>"):
    """``file:function`` of every ``np.add.at`` call under ``node``."""
    if isinstance(node, ast.FunctionDef):
        where = node.name
    is_add_at = isinstance(node, ast.Call) and ast.unparse(node.func) == "np.add.at"
    found = [f"{fname}:{where}"] if is_add_at else []
    for child in ast.iter_child_nodes(node):
        found += add_at_calls(fname, child, where)
    return found


def test_the_only_add_at_is_the_one_in_scatter_add():
    """Every row scatter goes through ``models.scatter_add``."""
    found = [call for fname, tree in modules() for call in add_at_calls(fname, tree)]
    assert found == ["models.py:scatter_add"], found


def test_only_models_imports_a_loss_function():
    """One loss core: the ``*_loss`` and ``*_loss_grads`` functions have one caller, ``models``.

    ``__init__.py`` only re-exports the public API.
    """
    found = []
    for fname, tree in modules():
        if fname == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("losses", "kgembed.losses"):
                found += [
                    f"{fname}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.endswith(("_loss", "_loss_grads"))
                ]
    assert found and all(f.startswith("models.py:") for f in found), found


def test_one_formula_per_model():
    """Each model kind is one function for its score and its gradient."""
    from kgembed import models

    assert tuple(models._FORMULA) == models.MODEL_KINDS
    tree = dict(modules())["models.py"]
    split = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith(("_score_", "_grad_"))
    ]
    assert not split, split


def test_the_bilinear_models_share_one_formula_and_one_ranking_kernel():
    """DistMult, ComplEx and SimplE are rows of ``_TRILINEAR``, not functions of their own."""
    from kgembed import models

    assert sorted(models._TRILINEAR) == ["complex", "distmult", "simple"]
    for table in (models._FORMULA, models._FAST):
        assert len({table[model] for model in models._TRILINEAR}) == 1, table


def test_the_translational_models_share_one_formula_and_one_ranking_kernel():
    """TransE, TransH and TransR are rows of ``_TRANSLATION``, not functions of their own; only
    TransE-L1's float32 ranking loop is named after one of them."""
    from kgembed import models

    assert sorted(models._TRANSLATION) == ["transe", "transh", "transr"]
    for table in (models._FORMULA, models._FAST):
        assert len({table[model] for model in models._TRANSLATION}) == 1, table
    named = [
        node.name
        for node in ast.walk(dict(modules())["models.py"])
        if isinstance(node, ast.FunctionDef) and any(m in node.name for m in models._TRANSLATION)
    ]
    assert named == ["_fast_transe_l1"], named


def test_the_library_imports_only_numpy_and_the_standard_library():
    """The runtime is numpy-only: every import in ``src/kgembed`` is numpy, a
    sibling module, or a module of the standard library."""
    import sys

    allowed = set(sys.stdlib_module_names) | {"numpy", "kgembed"}
    found = []
    for fname, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{fname}:{node.lineno} imports {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert not found, found


def test_models_reads_negatives_in_their_sampled_form():
    """``models`` takes a ``NegBatch`` as (positives, replaced, slot) and never
    builds or reads its [B, N, 3] ``negatives`` triples."""
    tree = dict(modules())["models.py"]
    found = [
        f"models.py:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "negatives"
    ]
    assert not found, found


def test_code_lines_leave_out_blank_lines_comments_and_docstrings():
    """CI's code-size report (``tools/code_lines.py``) counts the lines that hold code."""
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
    spec = importlib.util.spec_from_file_location("code_lines", path)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = '''"""Module
docstring."""

import numpy  # a comment

# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
        that is code"""
        return text
'''
    assert code_lines.code_lines(source) == 6


def test_code_lines_without_paths_prints_its_usage_and_exits_2():
    """A report over no files would read 0 lines and pass for a count."""
    import subprocess
    import sys

    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
    run = subprocess.run([sys.executable, path], capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stdout == "" and run.stderr.startswith("usage: ")


def test_digests_repeat_and_cover_every_model():
    """``tools/digests.py`` compares two library versions by their seeded outputs, so two runs
    of one version print the same lines, and the cases cover every model family."""
    import subprocess
    import sys

    from kgembed.models import MODEL_KINDS

    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "digests.py")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    runs = [subprocess.run([sys.executable, path], capture_output=True, text=True, env=env,
                           check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = [line.split() for line in runs[0].splitlines()]
    assert all(len(line) == 2 and len(line[1]) == 16 for line in lines), lines
    families = {line[0].split("/")[0] for line in lines}
    assert families == set(MODEL_KINDS) | {"rgcn", "ruge"}, families
