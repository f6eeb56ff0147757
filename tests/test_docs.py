"""Documentation consistency checks: the docs must not rot."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


class TestReadme:
    readme = (REPO / "README.md").read_text()

    def test_linked_documents_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md", "docs/MODEL.md",
                     "docs/WORKLOADS.md"):
            assert name in self.readme
            assert (REPO / name).exists(), name

    def test_listed_examples_exist(self):
        for match in re.findall(r"examples/(\w+\.py)", self.readme):
            assert (REPO / "examples" / match).exists(), match

    def test_listed_benchmarks_exist(self):
        for match in re.findall(r"`(test_\w+\.py)`", self.readme):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_quickstart_snippet_is_valid_python(self):
        blocks = re.findall(r"```python\n(.*?)```", self.readme, re.S)
        assert blocks
        for block in blocks:
            compile(block, "<readme>", "exec")

    def test_architecture_tree_matches_packages(self):
        import repro

        src = Path(repro.__file__).parent
        for package in src.iterdir():
            if package.is_dir() and (package / "__init__.py").exists():
                assert f"{package.name}/" in self.readme, package.name

    def test_documents_exactly_the_knobs_src_reads(self):
        """Every ``REPRO_*`` environment knob named in ``src/`` is
        documented in the README, and the README names no knob that
        ``src/`` no longer reads."""
        knob = re.compile(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b")
        in_src = {name for path in (REPO / "src").rglob("*.py")
                  for name in knob.findall(path.read_text())}
        assert in_src
        assert set(knob.findall(self.readme)) == in_src


class TestDesign:
    design = (REPO / "DESIGN.md").read_text()

    def test_experiment_index_points_at_real_benches(self):
        for match in re.findall(r"benchmarks/(test_\w+\.py)", self.design):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_every_figure_indexed(self):
        for figure in ("Fig 3", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
                       "Fig 10", "Fig 11a", "Fig 11b", "Fig 12", "Fig 13",
                       "Fig 14"):
            assert figure in self.design, figure

    def test_paper_check_recorded(self):
        assert "Paper-text check" in self.design

    def test_inventory_names_real_packages(self):
        import repro

        src = Path(repro.__file__).parent
        for match in set(re.findall(r"`repro\.(\w+)`", self.design)):
            assert (src / match).exists() or \
                (src / f"{match}.py").exists(), match


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        import ast

        missing = []
        for path in (REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            if not ast.get_docstring(tree):
                missing.append(str(path.relative_to(REPO)))
        assert missing == []

    def test_every_public_class_and_function_documented(self):
        import ast

        missing = []
        for path in (REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    if node.name.startswith("_"):
                        continue
                    if not ast.get_docstring(node):
                        missing.append(
                            f"{path.relative_to(REPO)}:{node.name}")
        assert missing == []
