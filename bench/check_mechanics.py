"""Tests of the benchmark's own mechanics (not part of the tier-1 suite:
one of them runs the full acceptance suite twice, about a minute).

    python3 -m pytest -q bench/check_mechanics.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import fixtures  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SUITE_SHA_42 = "9662e91542f5e4624f82a388584cb998a83260d772e3f42aaa8f0b19a143245a"


def test_self_time_of_nested_calls():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 9.0, 0)]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_time_per_function():
    t = tracer.Tracer()
    t.spans = [
        ("suite.battery_chain", 0.0, 8.0, -1),
        ("metric.validate_metric", 1.0, 3.0, 0),
        ("urysohn.injectivity_chain", 4.0, 7.0, 0),
        ("metric.validate_metric", 5.0, 6.0, 2),
    ]
    values = t.layer_metrics(overhead_ratio=1.5)
    assert values["suite.battery_chain.s"] == 8.0
    assert values["metric.validate_metric.calls"] == 2
    assert values["metric.validate_metric.self_s"] == 3.0
    assert values["urysohn.injectivity_chain.self_s"] == 2.0
    assert values["trace.overhead_ratio"] == 1.5
    assert set(values) == set(tracer.metric_units())


def _bindings() -> dict:
    import mslab.cli  # noqa: F401
    from mslab.urysohn import Approximant

    out = {}
    for name, module in list(sys.modules.items()):
        if name == "mslab" or name.startswith("mslab."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for attr, value in vars(Approximant).items():
        out[("Approximant", attr)] = value
    return out


def test_restore_puts_back_every_original_binding():
    import mslab.cli
    from mslab import suite

    before = _bindings()
    with tracer.Tracer() as t:
        assert suite.validate_metric is not before[("mslab.suite", "validate_metric")]
        patched = len(t._patched)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert mslab.cli.main(["rado", "metric", "--scan", "8"]) == 0
        assert suite.battery_chain(seed=1, trials=5).ok
    after = _bindings()
    assert patched > len(tracer.span_names())
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {span[0] for span in t.spans}
    assert {"rado.rado_metric_space", "metric.validate_metric", "suite.battery_chain",
            "urysohn.injectivity_chain", "report.canonical_json"} <= names


def test_fixtures_are_byte_identical_for_one_seed(tmp_path):
    fixtures.write_fixtures(11, tmp_path / "a")
    fixtures.write_fixtures(11, tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    for kind, count in fixtures.JOB_MIX:
        expect = [f["expect"] for f in manifest["files"][kind]]
        broken = [e for e in expect if not e["ok"]]
        assert all(e["reason"] == "triangle" for e in broken)
        if kind.startswith("random"):
            assert len(expect) == count and len(broken) == int(count * fixtures.BROKEN_SHARE)
        else:
            assert not broken


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _suite_sha() -> str:
    import mslab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert mslab.cli.main(["--seed", "42", "suite"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_traced_suite_prints_the_same_bytes():
    assert _suite_sha() == SUITE_SHA_42
    with tracer.Tracer() as t:
        traced = _suite_sha()
    assert traced == SUITE_SHA_42
    assert len(t.spans) > 0
