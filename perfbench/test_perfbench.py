"""Self-tests of the benchmark: corpora, span arithmetic, answer checks."""
from collections import Counter

import pytest

from perfbench import run, speed, tracer, workloads


@pytest.fixture
def stub_oracle(monkeypatch):
    # the oracle's verdicts are checked by the solver tests; here only the
    # seeded generation matters, and "No" is accepted by every workload
    monkeypatch.setattr(workloads, "oracle_verdict", lambda text: False)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_reproduces_corpus_hash(stub_oracle, workload):
    first = workloads.build_corpus(workload, 7)
    again = workloads.build_corpus(workload, 7)
    assert workloads.corpus_hash(first) == workloads.corpus_hash(again)
    assert len(first) >= 100  # at least ten samples beyond p90


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_gives_other_corpus_with_same_mix(stub_oracle, workload):
    one = workloads.build_corpus(workload, 7)
    two = workloads.build_corpus(workload, 8)
    assert workloads.corpus_hash(one) != workloads.corpus_hash(two)
    assert Counter(r["stratum"] for r in one) == Counter(r["stratum"] for r in two)


def test_numpart_rule():
    assert workloads.numpart_expected([1, 2, 3])  # 1 + 2 = 3
    assert not workloads.numpart_expected([1, 1, 1])  # odd total, no dominant value
    assert workloads.numpart_expected([5, 1, 1])  # 5 exceeds half of 7


def test_self_time_of_nested_calls():
    ticks = iter(range(100))
    tr = tracer.Tracer(boundaries=(), clock=lambda: float(next(ticks)))

    def leaf():
        return None

    traced_leaf = tr.wrap(leaf, "linprog.lp_feasible@few_edges")

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = tr.wrap(middle, "few_edges.solve")
    with tr.request():  # t=0
        traced_middle()  # t=1 .. t=6, two leaves of one tick each
    # request 0..7, middle 1..6, leaves 2..3 and 4..5
    assert [s.duration for s in tr.spans] == [7.0, 5.0, 1.0, 1.0]
    assert tracer.self_times(tr.spans) == [2.0, 3.0, 1.0, 1.0]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 1]
    assert {s.request for s in tr.spans} == {0}
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["few_edges.self_s"] == 3.0
    assert metrics["linprog.few_edges.calls"] == 2
    assert metrics["cli.self_s"] == 2.0


def _path_request(expect: bool) -> dict:
    text = workloads.instance_text(
        workloads.shape("path1"), {"a1": {"e1": 1}, "a2": {"e1": 2}}, "gc"
    )
    return {"stratum": "path1/2/gc", "mode": "few-edges", "text": text, "expect": expect, "ref": "path"}


def test_right_answers_pass_and_witnesses_are_checked():
    loop = run.Loop([_path_request(True)])
    loop.one_pass()
    assert (loop.attempted, loop.failures) == (1, [])
    assert len(loop.latencies) == 1


def test_run_for_makes_at_least_one_whole_pass():
    loop = run.Loop([_path_request(True), _path_request(True)])
    loop.run_for(0)
    assert loop.indices == [0, 1]
    assert len(loop.kernels) == 2


def test_latencies_are_scaled_by_the_local_kernel_time():
    # the machine runs at half speed in the second half: the kernel and
    # the requests both take twice as long there
    kernels = [0.002] * 30 + [0.004] * 30
    latencies = [0.01] * 30 + [0.02] * 30
    scaled = speed.scaled(latencies, kernels)
    assert scaled[0] == pytest.approx(0.01 * speed.REFERENCE_S / 0.002)
    assert scaled[-1] == pytest.approx(scaled[0])


def test_every_instance_counts_once_with_its_mean():
    loop = run.Loop([_path_request(True), _path_request(True)])
    loop.latencies, loop.indices = [1.0, 2.0, 3.0], [0, 1, 0]
    loop.kernels = [speed.REFERENCE_S] * 3
    assert loop.per_instance() == [2.0, 2.0]


def test_planted_wrong_verdict_is_a_failure():
    loop = run.Loop([_path_request(False), _path_request(True)])
    loop.one_pass()
    assert loop.attempted == 2
    assert len(loop.failures) == 1
    assert "reference (path) says the opposite" in loop.failures[0]


def test_input_error_is_a_failure():
    bad = dict(_path_request(True), text="efgc-instance v1\nvariant xx\n")
    loop = run.Loop([bad])
    loop.one_pass()
    assert loop.failures == ["#0 path1/2/gc: exit code 2"]


def test_tracer_records_layers_and_restores_modules():
    import efgc.few_edges

    original = efgc.few_edges.lp_feasible
    loop = run.Loop([_path_request(True)])
    with tracer.Tracer() as tr:
        loop.one_pass(tr)
    assert efgc.few_edges.lp_feasible is original
    metrics = tracer.layer_metrics(tr.spans)
    assert metrics["request.count"] == 1
    assert metrics["linprog.few_edges.calls"] >= 1
    assert metrics["few_edges.build_lp.calls"] >= metrics["linprog.few_edges.calls"]
    assert metrics["model.verify.calls"] == 1
    assert loop.failures == []
    assert abs(sum(metrics[f"{layer}.share"] for layer in tracer.LAYERS) - 1) < 1e-9
