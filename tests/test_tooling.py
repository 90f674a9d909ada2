"""The benchmark's span tracer wraps package functions by name; a rename or
deletion of any of them must fail here rather than in a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pblayers.cli as cli
    import spans

    main = cli.main
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.main is not main and cli.main.__wrapped__ is main
    finally:
        tracer.uninstall()
    assert cli.main is main
