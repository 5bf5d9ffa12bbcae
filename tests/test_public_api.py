"""Public API surface: everything in __all__ is importable and documented."""

import inspect

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_public_objects_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"undocumented public API: {undocumented}"


def test_quickstart_docstring_flow():
    """The README/docstring quick-start must actually run."""
    from repro import (
        HaggleLikeConfig,
        check_feasibility,
        haggle_like_trace,
        make_scheduler,
        tveg_from_trace,
    )

    trace = haggle_like_trace(HaggleLikeConfig(num_nodes=12, horizon=12000), seed=1)
    window = trace.restrict_window(8000, 10000).shift(-8000)
    tveg = tveg_from_trace(window, "static", seed=1)
    from repro.temporal.reachability import broadcast_feasible_sources

    feasible = broadcast_feasible_sources(tveg.tvg, 0.0, 2000.0)
    if not feasible:
        import pytest

        pytest.skip("window draw infeasible for quickstart")
    src = sorted(feasible)[0]
    schedule = make_scheduler("eedcb").schedule(tveg, source=src, deadline=2000)
    assert check_feasibility(tveg, schedule, src, 2000).feasible


def test_submodules_importable():
    import repro.allocation
    import repro.auxgraph
    import repro.channels
    import repro.core
    import repro.dts
    import repro.experiments
    import repro.mobility
    import repro.schedule
    import repro.sim
    import repro.steiner
    import repro.temporal
    import repro.traces
    import repro.tveg


def test_api_reference_in_sync():
    """docs/API.md is exactly what tools/gen_api_docs.py renders, so a
    symbol added to or removed from an ``__all__`` cannot go stale there."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", root / "tools" / "gen_api_docs.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    committed = (root / "docs" / "API.md").read_text(encoding="utf-8")
    assert gen.render() == committed, (
        "docs/API.md is stale; regenerate it with "
        "`python tools/gen_api_docs.py`"
    )
