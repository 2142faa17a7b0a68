"""The traced run sees every layer each workload is meant to exercise.

A wrapper that misses a by-name import records nothing for that layer, so
each scaled-down workload must show non-zero counts where the benchmark's
README says the workload spends its time, and zero where it says the
workload bypasses a layer.
"""

import contextlib
import importlib
import io
import pkgutil

import ecsquares
import ecsquares.cli
import tracing


def traced_metrics(*commands):
    """Run CLI commands as a fresh worker would: caches empty, tracer on."""
    ecsquares.finitefield._cached_context.cache_clear()
    ecsquares.finitefield.embed_field.cache_clear()
    ecsquares.curves._REALIZATION_CACHE.clear()
    tracer = tracing.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in commands:
                # Through the module attribute, as the worker calls it.
                ecsquares.cli.main(list(argv))
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.span_table(), tracer.counters)


def values(metrics, names):
    return {name: metrics[name][0] for name in names}


SEARCH_LAYERS = ("numeric.square_test_calls", "numeric.isqrt_calls", "numeric.isqrt_yield",
                 "sequence.scan_calls", "sequence.terms", "sequence.terms_per_s",
                 "search.pairs_s", "search.verify_calls", "search.verify_s",
                 "records.render_s", "records.bytes", "cli.self_s")
FIELD_LAYERS = ("finitefield.contexts_built", "finitefield.context_s", "finitefield.table_s",
                "finitefield.embed_s", "curves.realize_calls", "curves.realize_self_s",
                "curves.count_calls", "curves.count_self_s", "curves.elements_per_s")


def test_search_deep_layers():
    metrics = traced_metrics(("paper-check",), ("search", "--nmax", "40"))
    assert all(values(metrics, SEARCH_LAYERS + ("search.paper_check_s",)).values()), metrics
    assert not any(values(metrics, FIELD_LAYERS).values())
    # paper-check verifies each of its 52 hits in run_search and again in paper_check.
    assert metrics["search.verify_calls"][0] >= 3 * 52


def test_search_degenerate_layers():
    metrics = traced_metrics(("search", "--degenerate", "only", "--nmax", "30"))
    assert all(values(metrics, SEARCH_LAYERS).values()), metrics
    assert not any(values(metrics, FIELD_LAYERS).values())
    assert metrics["search.paper_check_s"][0] == 0


def test_oracle_layers():
    metrics = traced_metrics(("verify-extension", "--q", "4", "--a", "1", "--count-limit", "256"),
                             ("realize", "--q", "8", "--a", "2"))
    assert all(values(metrics, FIELD_LAYERS + ("cli.self_s",)).values()), metrics
    assert metrics["curves.count_calls"][0] == 4
    assert metrics["sequence.scan_calls"][0] == 0


def test_no_module_calls_an_unwrapped_copy():
    """After install, a traced function survives unwrapped only where it is
    defined, in the package namespace and in ``__main__``: the workers call
    ``ecsquares.cli.main`` and never go through those two."""
    originals = {}
    for module, attribute, _ in tracing.FUNCTION_TARGETS:
        fn = getattr(importlib.import_module(module), attribute)
        originals[id(fn)] = (fn, fn.__module__)
    tracer = tracing.install()
    try:
        leaks = []
        for info in pkgutil.iter_modules(ecsquares.__path__, "ecsquares."):
            if info.name == "ecsquares.__main__":
                continue
            module = importlib.import_module(info.name)
            for name, value in vars(module).items():
                fn, home = originals.get(id(value), (None, None))
                if fn is value and home != info.name:
                    leaks.append(f"{info.name}.{name}")
        assert leaks == []
    finally:
        tracer.uninstall()


def test_uninstall_restores():
    def current():
        return [getattr(importlib.import_module(module), attribute)
                for module, attribute, _ in tracing.FUNCTION_TARGETS]

    before = current()
    tracing.install().uninstall()
    assert all(now is was for now, was in zip(current(), before))
