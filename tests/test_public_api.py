"""The public API surface: exports exist, are documented, and cohere."""

import inspect

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_exports_documented(self):
        for name in repro.__all__:
            if name == "__version__":
                continue
            item = getattr(repro, name)
            doc = inspect.getdoc(item)
            assert doc and doc.strip(), f"{name} lacks a docstring"

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_scenario_and_balancer_registries_agree_with_docs(self):
        assert len(repro.SCENARIO_NAMES) == 9
        assert "l3" in repro.BALANCER_NAMES
        assert "round-robin" in repro.BALANCER_NAMES
        assert "c3" in repro.BALANCER_NAMES


class TestSubpackages:
    def test_every_subpackage_has_all(self):
        import repro.analysis
        import repro.autoscale
        import repro.balancers
        import repro.core
        import repro.mesh
        import repro.sim
        import repro.telemetry
        import repro.tournament
        import repro.tracing
        import repro.workloads

        for pkg in (repro.analysis, repro.autoscale, repro.balancers,
                    repro.core, repro.mesh, repro.sim, repro.telemetry,
                    repro.tournament, repro.tracing, repro.workloads):
            assert pkg.__all__, pkg.__name__
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"

    def test_kernel_exports_one_scheduling_model(self):
        """Callbacks on the agenda are the only way to schedule: no
        generator-process API and no event hierarchy to wait on."""
        import repro.errors
        import repro.sim

        assert not {"Event", "Process", "Timeout"} & set(repro.sim.__all__)
        assert not hasattr(repro.sim, "Process")
        assert not hasattr(repro.sim, "Timeout")
        assert not hasattr(repro.errors, "Interrupted")
        for gone in ("spawn", "timeout", "event"):
            assert not hasattr(repro.sim.Simulator, gone), gone

    def test_module_docstrings_everywhere(self):
        import pathlib
        import ast

        root = pathlib.Path(repro.__file__).parent
        for path in root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"
