"""Documentation freshness and consistency checks."""

from pathlib import Path


REPO = Path(__file__).parent.parent


def test_generated_event_reference_is_fresh():
    """docs/events.md must match the current registry."""
    from repro.core.registry import default_registry

    path = REPO / "docs" / "events.md"
    assert path.exists(), "run python docs/generate.py"
    assert path.read_text().strip() == \
        default_registry().to_markdown().strip(), (
            "docs/events.md is stale; regenerate with python docs/generate.py"
        )


def test_generated_cli_inventory_is_fresh():
    """docs/cli.md must match ``build_parser()``: a flag added, dropped
    or re-defaulted shows up in review as a diff of that file."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "docs_generate", REPO / "docs" / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    path = REPO / "docs" / "cli.md"
    assert path.exists(), "run python docs/generate.py"
    assert path.read_text().strip() == generate.cli_markdown().strip(), (
        "docs/cli.md is stale; regenerate with python docs/generate.py"
    )


def test_markdown_docs_exist_and_nonempty():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/trace-format.md", "docs/architecture.md",
                 "docs/fault-tolerance.md", "docs/testing.md",
                 "docs/parallel-analysis.md", "docs/columnar.md"):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, name


def test_examples_referenced_in_readme_exist():
    readme = (REPO / "README.md").read_text()
    for line in readme.splitlines():
        if "examples/" in line and ".py" in line:
            start = line.index("examples/")
            end = line.index(".py", start) + 3
            rel = line[start:end]
            assert (REPO / rel).exists(), rel


def test_all_public_tool_functions_have_docstrings():
    import repro.tools as tools

    for name in tools.__all__:
        obj = getattr(tools, name)
        assert obj.__doc__, f"{name} lacks a docstring"


def test_every_module_has_a_docstring():
    import importlib
    import pkgutil

    import repro

    for modinfo in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mod = importlib.import_module(modinfo.name)
        assert mod.__doc__, f"{modinfo.name} lacks a module docstring"
