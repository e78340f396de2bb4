"""Tests of the benchmark itself, not of symf:

    python3 -m pytest bench
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _declared():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    return doc, e2e, layers


def _shape(q):
    """What a query costs, without the inputs the seed draws."""
    if q[0] == "convert":
        return ("convert", q[3], sum(q[1][1]) * sum(q[2][1]))
    if q[0] == "modes":
        return ("modes", sum(q[1][1]), q[3], q[1][0] == "s")
    if q[0] in ("hilbert", "inv"):
        return tuple(map(str, q))
    return (q[0],)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_inputs_not_counts(workload):
    one, two = workloads.queries(workload, 1), workloads.queries(workload, 2)
    assert one == workloads.queries(workload, 1)
    assert one != two
    assert Counter(map(_shape, one)) == Counter(map(_shape, two))


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMF_CACHE_DIR", str(tmp_path))


def _term_counts(answer):
    if isinstance(answer, list):
        return tuple(_term_counts(a) for a in answer)
    return len(answer["terms"]) if isinstance(answer, dict) else None


def test_seeds_keep_answer_term_counts(cache):
    """Inputs a seed draws give answers of the same size, so two seeds
    do the same work and count the same terms."""
    def sizes(seed):
        return Counter(
            (_shape(q), _term_counts(workloads.encode(workloads.run_query(q))))
            for q in workloads.queries("schur_expand", seed))
    assert sizes(1) == sizes(2)


@pytest.mark.parametrize("q, corrupt", [
    (["hilbert", ("sl", 2), ("h", [4]), 6], lambda a: str(int(a) + 1)),
    (["hilbert", ("sl", 3), ("h", [2]), 3], lambda a: str(int(a) + 1)),
    (["hilbert", ("sl", 2), ("e", [2]), 4], lambda a: str(int(a) - 1)),
    (["inv", ("perm", 3), ("h", [2]), 3],
     lambda a: dict(a, terms=a["terms"][1:])),
    (["convert", ["h", [2]], ["h", [2]], "s"],
     lambda a: dict(a, basis="m")),
    (["modes", ["h", [2]], [["h", [2]], ["e", [2]]], 2],
     lambda a: [a[0], dict(a[1], terms=a[1]["terms"][:-1])]),
])
def test_corrupted_answer_is_counted_failed(cache, q, corrupt):
    answer = workloads.encode(workloads.run_query(q))
    assert workloads.check(q, answer) is None
    bad = corrupt(answer)
    assert workloads.check(q, bad) is not None

    bench = run.Run("schur_expand", 1, 1)
    try:
        bench.queries = [q]
        verified = bench.verify([bad])
        bench.tally({"answers": [answer], "warm_mismatch": []}, verified)
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (2, 2)


def test_wrong_cli_output_is_counted_failed(cache):
    bench = run.Run("cli_session", 1, 1)
    try:
        bench.queries = [["eval", "h2[h2]"]]
        good = bench.references()
        assert good == [(0, "s[4] + s[2,2]\n")]
        bench.cli_cycle(good)
        assert (bench.attempted, bench.failed) == (2, 0)
        bench.cli_cycle([(0, "s[4]\n")])
    finally:
        bench.close()
    assert (bench.attempted, bench.failed) == (4, 2)


def test_metric_names_and_units_match_benchmark_json():
    doc, e2e, layers = _declared()
    assert e2e == run.E2E_UNITS
    assert layers == run.LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_scaled_times_follow_the_reference_loop():
    assert speed.scaled(2.0, speed.REF_S) == pytest.approx(2.0)
    # the same span next to a loop twice as slow: the host was slower
    slow = speed.scaled(2.0, 2 * speed.REF_S, 2 * speed.REF_S)
    assert slow == pytest.approx(2.0 / 2 ** speed.SENSITIVITY)


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (90.0, 89)
    assert run.tail([3, 1, 2]) == (100.0, 3)


def _printed(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(BENCH.parent), timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    _, e2e, layers = _declared()
    declared = layers if trace else e2e
    result = _printed("cli_session", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
