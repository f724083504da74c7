"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import copy
import json
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))
import dyadicmax  # noqa: E402

SMOKE = workloads.WORKLOADS["smoke"]


@pytest.fixture(scope="module")
def smoke_payloads():
    insts = workloads.instances(SMOKE, seed=11)
    return insts, [i.run(dyadicmax).to_json_dict() for i in insts]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_seed_picks_offset_and_cube_has_none():
    th = workloads.WORKLOADS["theorem_n2"]
    assert workloads.instances(th, 3) == workloads.instances(th, 3)
    offsets = {workloads.offset(th, s) for s in range(20)}
    assert len(offsets) > 1
    assert all(lo <= k <= hi for k in offsets for lo, hi in [workloads.OFFSET_RANGE])
    assert workloads.offset(workloads.WORKLOADS["cube_n2"], 3) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_expected_description_at_zero_offset_is_the_reference(name):
    w = workloads.WORKLOADS[name]
    refs = workloads.load_references(w)
    insts = w.build(0)
    assert len(insts) == len(refs)
    for inst, ref in zip(insts, refs):
        assert inst.expected_description(ref) == ref["description"]


def test_shifted_smoke_payload_passes_the_gate(smoke_payloads):
    insts, payloads = smoke_payloads
    refs = workloads.load_references(SMOKE)
    assert workloads.gate(insts, payloads, refs) == [[]]


def test_flipped_mantissa_is_a_failure(smoke_payloads):
    insts, payloads = smoke_payloads
    refs = workloads.load_references(SMOKE)
    bad = copy.deepcopy(payloads)
    bad[0]["superlevel"]["mantissa"] ^= 1
    (reasons,) = workloads.gate(insts, bad, refs)
    assert len(reasons) == 1 and reasons[0].startswith("superlevel:")


def test_corrupted_reference_raises_failed_share(smoke_payloads):
    insts, payloads = smoke_payloads
    refs = copy.deepcopy(workloads.load_references(SMOKE))
    refs[0]["measure_E"]["mantissa"] += 2
    reasons = workloads.gate(insts, payloads, refs)
    assert sum(1 for r in reasons if r) / len(reasons) > 0


def test_raised_and_unpassed_instances_fail(smoke_payloads):
    insts, payloads = smoke_payloads
    refs = workloads.load_references(SMOKE)
    assert workloads.gate(insts, ["ValueError: boom"], refs) == [["raised ValueError: boom"]]
    unpassed = copy.deepcopy(payloads)
    unpassed[0]["passed"] = False
    assert workloads.gate(insts, unpassed, refs)[0]


def _span(name, start, end, parent, instance=0, counts=None):
    return [name, start, end, parent, instance, counts]


def test_self_time_arithmetic_on_a_synthetic_tree():
    tree = [
        _span(spans.ROOT, 0, 100, None),
        _span("verify.verify_theorem", 5, 95, 0),
        _span("evaluator.anchored_union_measure", 10, 40, 1),
        _span("evaluator.union_measure", 15, 25, 2, counts={"boxes": 3}),
        _span(spans.COUNTERS, 40, 50, 1),
        _span("evaluator.maximal_field", 50, 90, 1, counts={"shapes": 2, "placements": 7}),
        _span(spans.ROOT, 200, 210, None, instance=1),
    ]
    assert spans.self_times(tree) == [10, 10, 20, 10, 10, 40, 10]
    assert spans.instance_self_sums(tree) == {0: (100, 100), 1: (10, 10)}
    m = spans.layer_metrics(tree)
    assert m["evaluator.union_s"] == pytest.approx(30e-9)  # nested union counted once
    assert m["evaluator.union_calls"] == 1 and m["evaluator.union_boxes"] == 3
    assert m["verify.family_pass_s"] == pytest.approx(40e-9)
    assert m["verify.self_s"] == pytest.approx(10e-9)
    assert m["evaluator.placements_per_s"] == pytest.approx(7 / 40e-9)
    assert m["trace.counters_s"] == pytest.approx(10e-9)
    assert m["verify.homogeneity_calls"] == 0 and m["evaluator.prefix_sums_per_mask"] == 0.0


def test_overlapping_children_are_merged():
    tree = [
        _span("a", 0, 100, None),
        _span("b", 10, 30, 0),
        _span("c", 20, 40, 0),
        _span("d", 90, 120, 0),
    ]
    assert spans.self_times(tree)[0] == 100 - 30 - 10


def test_recorder_wraps_every_importer_and_restores():
    original = dyadicmax.evaluator.maximal_field
    rec = spans.Recorder()
    rec.install()
    try:
        assert dyadicmax.verify.maximal_field is dyadicmax.evaluator.maximal_field
        assert dyadicmax.maximal_field is dyadicmax.evaluator.maximal_field
        assert dyadicmax.evaluator.maximal_field.__wrapped__ is original
        (inst,) = workloads.instances(SMOKE, seed=11)
        with rec.instance(0):
            inst.run(dyadicmax)
    finally:
        rec.uninstall()
    assert dyadicmax.verify.maximal_field is original
    m = spans.layer_metrics(rec.spans)
    # n=2, m=4: 4 indices, so 4 homogeneity fields plus one family pass,
    # each rebuilding the prefix sums of the same mask E
    assert m["verify.homogeneity_calls"] == 4
    assert m["evaluator.maximal_field_calls"] == 5
    assert m["evaluator.prefix_sums_calls"] == 5
    assert m["evaluator.prefix_sums_per_mask"] == 5.0
    assert m["evaluator.rasterize_per_crystal"] == 13 / 5
    sums = spans.instance_self_sums(rec.spans)
    assert sums[0][0] == sums[0][1]


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_end_to_end(trace):
    proc = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--workload", "smoke",
         "--seed", "2", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=workloads.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
