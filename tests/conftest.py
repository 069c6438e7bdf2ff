import pytest


def pytest_collection_modifyitems(items):
    """Mark the bench contract tests golden here: their file changes only
    together with the benchmark in `bench/`."""
    for item in items:
        if item.path.name == "test_bench_contract.py":
            item.add_marker(pytest.mark.golden)
