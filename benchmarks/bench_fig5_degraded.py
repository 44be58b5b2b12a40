"""Extension: array bandwidth healthy, degraded and during rebuild."""

from conftest import run_once

from repro.experiments import fig5_degraded


def test_fig5_degraded(benchmark, show):
    result = run_once(benchmark, fig5_degraded.run, quick=True)
    show(result)
    scalars = result.scalars
    # Degraded mode costs bandwidth but far from all of it.
    assert 0.3 < scalars["degraded_fraction"] < 1.0
    # Rebuilding steals more, but the server keeps serving.
    assert scalars["client_during_rebuild_mb_s"] > \
        0.2 * scalars["client_healthy_mb_s"]
    assert scalars["rebuild_under_load_mb_s"] > 0
    assert scalars["parity_clean_after_rebuild"] == 1.0
