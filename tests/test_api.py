"""The package's top-level API: what ``traceavert`` exports and what the README uses."""
import ast
import re
from pathlib import Path

import traceavert
from traceavert import cli

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = {
    "CASE_TYPES", "CaseSeries", "CounterfactualResult", "InfectivityProfile", "LambdaTable",
    "ModelParams", "averted_app", "averted_ct", "default_params", "load_fixture", "__version__",
}


def _quick_start_output() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return re.search(r"```text\n(.*?)```", section, re.DOTALL).group(1).splitlines()


def _library_use_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_all_is_the_documented_api():
    assert len(traceavert.__all__) == len(PUBLIC) == 11
    assert set(traceavert.__all__) == PUBLIC
    for name in traceavert.__all__:
        assert getattr(traceavert, name) is not None, name


def test_readme_example_imports_only_exported_names():
    imported = {alias.name for node in ast.walk(ast.parse(_library_use_code()))
                if isinstance(node, ast.ImportFrom) and node.module == "traceavert"
                for alias in node.names}
    assert imported and imported <= set(traceavert.__all__)


def test_readme_example_runs(capsys):
    exec(compile(_library_use_code(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("2020-42 134772.0 {'miss': ")
    assert lines[2].startswith("table {'table': ")


def test_readme_quick_start_matches_estimate(tmp_path, capsys):
    assert cli.main(["estimate", "--out", str(tmp_path / "out")]) == 0
    expected = _quick_start_output()
    assert len(expected) == 9
    assert capsys.readouterr().out.splitlines()[: len(expected)] == expected


def test_readme_cites_only_tests_that_exist():
    text = README.read_text(encoding="utf-8")
    cited = re.findall(r"tests/(test_\w+)\.py::(\w+)(?:::(\w+))?", text)
    assert cited
    for module, name, method in cited:
        tree = ast.parse((README.parent / "tests" / f"{module}.py").read_text(encoding="utf-8"))
        defined = {node.name: node for node in tree.body
                   if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        assert name in defined, f"{module}::{name}"
        if method:
            assert any(getattr(node, "name", None) == method for node in defined[name].body), \
                f"{module}::{name}::{method}"
