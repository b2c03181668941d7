"""Package-level hygiene: exception hierarchy, exports, examples."""

import importlib
import pathlib
import py_compile

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    def test_every_error_derives_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            if name == "ReproError" or not isinstance(cls, type):
                continue  # helpers like annotate_strategy are exported too
            assert issubclass(cls, errors.ReproError), name

    def test_dual_inheritance_for_stdlib_compat(self):
        """Key errors also subclass the stdlib types callers expect."""
        assert issubclass(errors.DivisionByZeroError, ZeroDivisionError)
        assert issubclass(errors.UnknownNodeError, KeyError)
        assert issubclass(errors.UnknownChunkError, KeyError)
        assert issubclass(errors.ConfigurationError, ValueError)
        assert issubclass(errors.InvalidCodeParametersError, ValueError)

    def test_branch_structure(self):
        assert issubclass(errors.SingularMatrixError, errors.CodingError)
        assert issubclass(errors.NoValidSolutionError, errors.RecoveryError)
        assert issubclass(errors.PlacementError, errors.ClusterError)
        assert issubclass(errors.FlowError, errors.SimulationError)

    def test_catching_base_class_is_sufficient(self):
        from repro.gf.field import GF8

        with pytest.raises(errors.ReproError):
            GF8.inv(0)


class TestRootExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for pkg in (
            "repro.gf",
            "repro.erasure",
            "repro.cluster",
            "repro.recovery",
            "repro.network",
            "repro.sim",
            "repro.workloads",
            "repro.analysis",
            "repro.experiments",
            "repro.cli",
        ):
            importlib.import_module(pkg)

    def test_subpackage_all_exports_resolve(self):
        for pkg_name in (
            "repro.gf",
            "repro.erasure",
            "repro.cluster",
            "repro.recovery",
            "repro.network",
            "repro.sim",
            "repro.workloads",
            "repro.analysis",
            "repro.experiments",
        ):
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"


class TestExamples:
    def test_all_examples_compile(self):
        examples = sorted(
            (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
        )
        assert len(examples) >= 3  # the deliverable floor; we ship more
        for path in examples:
            py_compile.compile(str(path), doraise=True)

    def test_examples_have_docstrings_and_main(self):
        examples = (pathlib.Path(__file__).parent.parent / "examples").glob(
            "*.py"
        )
        for path in examples:
            text = path.read_text()
            assert text.lstrip().startswith(("#!", '"""')), path.name
            assert "def main()" in text, path.name
            assert '__name__ == "__main__"' in text, path.name


class TestDocumentation:
    def test_design_and_experiments_docs_exist(self):
        root = pathlib.Path(__file__).parent.parent
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            content = (root / doc).read_text()
            assert len(content) > 1000, doc

    def test_public_modules_have_docstrings(self):
        import pkgutil

        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(
            package.__path__, prefix="repro."
        ):
            mod = importlib.import_module(info.name)
            assert mod.__doc__, f"{info.name} lacks a module docstring"
