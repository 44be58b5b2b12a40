"""Smoke tests for the experiment modules (full runs live in benchmarks/)."""

import pytest

from repro.experiments import (base, fig5_degraded, fig6_hippi_loopback,
                               fig7_string_scaling, vme_ports)
from repro.experiments.base import ExperimentResult, Point, Series


def test_series_helpers():
    series = Series("s", "x", "y")
    series.add(1, 10.0)
    series.add(2, 20.0)
    assert series.y_at(2) == 20.0
    assert series.max_y == 20.0
    with pytest.raises(KeyError):
        series.y_at(3)


def test_result_render_contains_anchors():
    result = ExperimentResult(
        experiment_id="x", title="T",
        series=[Series("s", "KB", "MB/s", [Point(1, 2.0)])],
        scalars={"rate": 12.34}, paper={"rate": 10.0},
        notes=["a note"])
    text = result.render()
    assert "x: T" in text
    assert "12.34" in text
    assert "(paper: 10)" in text
    assert "a note" in text


def test_result_series_lookup():
    result = ExperimentResult("x", "T", series=[Series("a", "x", "y")])
    assert result.series_named("a").name == "a"
    with pytest.raises(KeyError):
        result.series_named("b")


def test_ratio_helper():
    assert base.ratio(5.0, 10.0) == 0.5
    assert base.ratio(5.0, None) is None
    assert base.ratio(5.0, 0) is None


def test_vme_ports_quick():
    result = vme_ports.run(quick=True)
    assert result.experiment_id == "vme-ports"
    assert 6.0 < result.scalars["vme_read_mb_s"] < 7.0


def test_fig7_quick():
    result = fig7_string_scaling.run(quick=True)
    measured = result.series_named("measured")
    assert len(measured.points) == 5
    assert measured.points[0].y < measured.points[-1].y


def test_fig6_quick():
    result = fig6_hippi_loopback.run(quick=True)
    series = result.series_named("loopback throughput")
    ys = [point.y for point in series.points]
    assert ys == sorted(ys)  # monotone in transfer size


def test_fig5_degraded_quick():
    result = fig5_degraded.run(quick=True)
    assert result.experiment_id == "fig5-degraded"
    scalars = result.scalars
    assert scalars["healthy_plateau_mb_s"] > 0
    assert 0 < scalars["degraded_fraction"] <= 1.0
    assert scalars["degraded_reads_total"] > 0
    assert scalars["parity_clean_after_rebuild"] == 1.0


def test_rebuild_under_load_quick():
    # Rebuild racing client load is the last phase of fig5-degraded.
    result = fig5_degraded.run(quick=True)
    scalars = result.scalars
    assert scalars["rebuild_idle_mb_s"] > 0
    # Contention slows both sides; neither should stall outright.
    assert 0 < scalars["rebuild_slowdown_fraction"] <= 1.0
    assert 0 < scalars["client_slowdown_fraction"] <= 1.0
    assert scalars["parity_clean_after_rebuild"] == 1.0
