"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest bench

Runs every workload with two trials per command, tracing off and on, and
checks that each run is correct and prints exactly the metrics that
BENCHMARK.json declares.  About a minute on a 2-core machine.
"""

import json

import pytest

import run
from workloads import WORKLOADS, CheckError, check_output, _rate_ok

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_runner():
    assert ([m["name"] for m in SPEC["end_to_end"]]
            == [name for name, _ in run.END_TO_END])
    assert ([m["name"] for m in SPEC["per_layer"]]
            == [row[0] for row in run.PER_LAYER])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_at_tiny_size(name, trace):
    result, lines = run.run_workload(WORKLOADS[name], seed=5, seconds=0,
                                     trace=trace, trials=2, min_reps=1)
    assert result["failed"] == 0, lines
    assert result["correct"] and result["attempted"] > 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    assert json.loads(json.dumps(result)) == result
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["cli.main.s"] > 0
        assert values["treechain.simulate_batch.calls"] == 0


def test_output_check_rejects_an_inconsistent_summary():
    w = WORKLOADS["wide_uniform"]
    work = run.ROOT / ".bench_work" / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    out = run.run_command(w, seed=5, trials=2, work=work, traced=False,
                          timeout=120)
    assert out.ok, out.message
    summary = work / "out-plain-2.summary.csv"
    header, row = summary.read_text().splitlines()
    fields = row.split(",")
    fields[1] = str(int(fields[1]) + 1)
    summary.write_text(f"{header}\n{','.join(fields)}\n")
    with pytest.raises(CheckError):
        check_output(w, 2, str(work / "out-plain-2"))


def test_times_are_scaled_by_the_median_probe(monkeypatch):
    # warm-up, then one probe before the first command and one after each
    probes = iter([0.5, 0.1, 0.1, 0.9, 0.1, 0.05])
    walls = iter([1.0, 4.0, 3.0, 6.0])      # setup, full, setup, full

    def fake(w, seed, trials, work, traced, timeout):
        return run.Outcome(trials=trials, ok=True, wall_s=next(walls),
                           child={"peak_rss_kib": 1024 * trials})

    monkeypatch.setattr(run, "probe", lambda: next(probes))
    monkeypatch.setattr(run, "REF_PROBE_S", 0.05)
    monkeypatch.setattr(run, "run_command", fake)
    result, _ = run.run_workload(WORKLOADS["small_map"], seed=5, seconds=0,
                                 trace=False, trials=100, min_reps=2)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # median probe 0.1 s: the host ran at half the reference speed
    assert values == pytest.approx({"trials_per_s": 200 / 10 * 2,
                                    "setup_s": 2.0 / 2,
                                    "peak_rss_mb": 100.0})
    assert result["attempted"] == 202 and result["failed"] == 0


def test_error_rate_check_is_binomial():
    assert _rate_ok(100, 1000, (1000, 10000))
    assert not _rate_ok(300, 1000, (1000, 10000))
    assert not _rate_ok(100, 1000, (5000, 10000))
    assert _rate_ok(1, 1000, (0, 10000))
    assert _rate_ok(0, 1000, (2, 20000))


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "small_map", "--seed", "1",
                     "--seconds", "1"]) == 2
