"""Tests of the benchmark's own arithmetic and repeatability.

    python3 -m pytest benchmarks -q

Not part of the package's suite: they check the measuring tool, and the
repeat test runs small traced sweeps (about ten seconds).
"""

from __future__ import annotations

import dataclasses
import threading
import time

import pytest

import run
import spans
import workloads as wl

calmir = run.import_calmir()

COUNT_METRICS = {
    "reflection.points",
    "quadrature.rowwise.calls",
    "quadrature.rowwise.passes",
    "quadrature.rowwise.points",
    "quadrature.adaptive.calls",
    "quadrature.adaptive.points",
    "lifshitz.force.calls",
    "lifshitz.matsubara_terms",
    "lifshitz.outer_rows",
    "lifshitz.bound_envelope.calls",
    "materials.response_sample.calls",
    "materials.response_sample.points",
    "scenario.parse.calls",
}
SLEEP = 0.05
TOL = 0.02  # scheduler slack on a busy machine


def _sleep_span(tracer, name, seconds):
    with tracer.span(name):
        time.sleep(seconds)


@pytest.mark.parametrize("threads", [1, 2])
def test_self_time_of_nested_spans(threads):
    """outer sleeps 2*SLEEP itself and runs `threads` children of SLEEP each.

    With two threads the children overlap, so they cover SLEEP of the
    outer span, not 2*SLEEP; each child's self time is its own sleep.
    """
    tracer = spans.Tracer()
    with tracer.span("outer"):
        time.sleep(SLEEP)
        workers = [threading.Thread(target=_sleep_span, args=(tracer, "child", SLEEP)) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        time.sleep(SLEEP)
        with tracer.span("inner"):
            _sleep_span(tracer, "leaf", SLEEP)
    s = tracer.summary()
    assert s["child"]["calls"] == threads
    assert s["outer"]["self_s"] == pytest.approx(2 * SLEEP, abs=TOL)
    assert s["child"]["self_s"] == pytest.approx(threads * SLEEP, abs=threads * TOL)
    assert s["inner"]["self_s"] == pytest.approx(0.0, abs=TOL)
    assert s["leaf"]["self_s"] == pytest.approx(SLEEP, abs=TOL)
    assert s["outer"]["s"] == pytest.approx(
        s["outer"]["self_s"] + SLEEP + s["inner"]["s"], abs=TOL
    )


def test_absent_function_is_reported_not_zero(monkeypatch):
    monkeypatch.setattr(
        spans, "HOOKS", spans.HOOKS + (("calmir.lifshitz", "no_such_function", spans.HOOKS[0][2]),)
    )
    with spans.hooks(spans.Tracer()) as coverage:
        pass
    assert coverage["calmir.lifshitz.no_such_function"] == "absent"
    assert "calmir.cli.force_finite_T" in coverage["calmir.lifshitz.force_finite_T"]
    assert calmir.cli.main.__module__ == "calmir.cli"  # bindings restored


def _traced_counts(argvs):
    tracer = spans.Tracer()
    with spans.hooks(tracer) as coverage:
        for argv in argvs:
            code, _, err = run.run_cli(calmir, argv)
            assert code == 0, err
    metrics = run.layer_metrics(tracer.summary(), coverage, 1.0, 1.0, 1.0)
    return {k: v for k, (v, _) in metrics.items() if k in COUNT_METRICS}


def _small_sweep(tmp_path, preset, tau, d_min, d_max, points):
    base = calmir.preset_scenario(preset)
    scn = dataclasses.replace(base, temperature=tau, sweep=calmir.SweepGrid(d_min, d_max, points, "log"))
    path = tmp_path / f"{preset}.txt"
    path.write_text(calmir.serialize(scn))
    return path


@pytest.mark.parametrize("workers", [1, 2])
def test_count_metrics_repeat_exactly(tmp_path, workers):
    """Two traced runs of the same inputs give identical counts, for 1 and 2 workers,
    and the counts do not depend on the worker count."""
    fig1d = _small_sweep(tmp_path, "fig1d", 0.01, 0.5, 20.0, 6)
    fig1c = _small_sweep(tmp_path, "fig1c", 0.0, 5.0, 50.0, 2)
    out = tmp_path / "out.csv"
    paths = {name: tmp_path / f"q-{name}.txt" for name in wl.QUERY_SCENARIOS}
    for name, text in wl.scenario_texts(calmir).items():
        if name in paths:
            paths[name].write_text(text)
    queries = next(wl.query_passes(seed=7))[:24]

    def argvs(n_workers):
        sweeps = [["sweep", str(p), "-o", str(out), "--workers", str(n_workers), "--quiet"] for p in (fig1d, fig1c)]
        return sweeps + [q.argv(paths[q.scenario]) for q in queries]

    first = _traced_counts(argvs(workers))
    assert _traced_counts(argvs(workers)) == first
    assert set(first) == COUNT_METRICS
    assert first["lifshitz.matsubara_terms"] > 0 and first["lifshitz.outer_rows"] > 0
    if workers == 2:
        assert _traced_counts(argvs(1)) == first
