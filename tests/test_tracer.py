"""The benchmark tracer still finds every name it patches."""

from collections import Counter
from pathlib import Path

from regsing import geometry

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_solve_records_each_singular_primitive_once(monkeypatch):
    # the tracer looks its targets up by name (MetricFamily.Pddot_at
    # through vars(owner)[attr], among others), so a rename breaks Tracer()
    # or leaves a primitive unrecorded; a solve records each span once
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        geometry.solve_harmonic(
            geometry.MetricFamily.from_diagonal(["sin(t)^2", "sin(t)^2"],
                                                dim_p=2), 0.7, 1.5)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    spans = Counter(tracer.names[i] for i in tracer.name)
    for name in ("check_admissibility", "bootstrap_series", "choose_handoff",
                 "integrate"):
        assert spans[f"singular.{name}"] == 1, name
