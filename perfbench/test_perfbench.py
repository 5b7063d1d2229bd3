"""Fast self-tests of the benchmark's own machinery.  None of them runs a
workload: the largest training run here is two short episodes."""

import statistics

import numpy as np
import pytest

import bench_stats
import bench_trace
import bench_workloads
from htpg import envs, policy, training
from htpg.envs import EnvSpec, TrappedCar


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    names = ("a", "b", "c", "d")
    summary = bench_trace.span_summary(
        names,
        name_ids=[0, 1, 2, 3],
        parents=[-1, 0, 0, 2],
        starts=[0.0, 1.0, 5.0, 6.0],
        ends=[10.0, 4.0, 9.0, 7.0],
    )
    assert {n: summary[n]["self_s"] for n in names} == {"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert summary["a"]["children"] == {"b": 1, "c": 1}
    assert summary["c"]["children"] == {"d": 1}
    assert all(summary[n]["calls"] == 1 for n in names)


def test_self_time_sums_repeated_names():
    summary = bench_trace.span_summary(
        ("outer", "inner"),
        name_ids=[0, 1, 1, 0],
        parents=[-1, 0, 0, -1],
        starts=[0.0, 0.5, 1.5, 3.0],
        ends=[2.0, 1.0, 1.75, 3.5],
    )
    assert summary["outer"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(2.0 - 0.75 + 0.5)
    assert summary["inner"]["self_s"] == pytest.approx(0.75)
    assert summary["outer"]["children"] == {"inner": 2}


def test_median_and_quartiles_follow_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert bench_stats.quartiles(values) == (q1, q2, q3)
    assert bench_stats.median(values) == statistics.median(values)
    assert bench_stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert bench_stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert bench_stats.spread([2.5, 2.5, 2.5]) == 0.0


def test_wrapper_records_parentage_and_passes_errors_through():
    tracer = bench_trace.Tracer(("outer", "inner"))
    inner = tracer.wrap("inner", lambda x: x * 2)

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    failing = tracer.wrap("inner", fail)
    assert outer(3) == 14
    with pytest.raises(ValueError, match="boom"):
        failing()
    assert list(tracer.parents) == [-1, 0, 0, -1]
    summary = tracer.summary()
    assert summary["inner"]["calls"] == 3
    assert summary["outer"]["children"] == {"inner": 2}


def _tiny_config(alpha):
    spec = EnvSpec(-4.0, 3.709, -20.0, 20.0, 1.15, 2.0, 0.97, 100.0, 60)
    return training.TrainConfig(
        env=TrappedCar(spec=spec),
        policy_init=policy.PolicyParams.zeros(3, alpha),
        episodes=2, seed=5, q_mode="fresh",
    )


def test_traced_training_reproduces_untraced_and_restores_patches():
    originals = {(site, attr): getattr(bench_trace._resolve(site), attr)
                 for _, site, attr in bench_trace.PATCH_SITES}
    plain = training.train(_tiny_config(1.0))
    with bench_trace.Tracer() as tracer:
        assert training.train is not originals[("htpg.training", "train")]
        traced = training.train(_tiny_config(1.0))
    assert traced.returns == plain.returns
    assert traced.update_counts == plain.update_counts
    assert np.array_equal(policy.param_vector(traced.final_policy),
                          policy.param_vector(plain.final_policy))
    for (site, attr), original in originals.items():
        assert getattr(bench_trace._resolve(site), attr) is original
    summary = tracer.summary()
    assert summary["training.train"]["calls"] == 1
    assert summary["policy.score"]["calls"] == plain.wall_updates
    assert summary["qvalue.estimate_q"]["calls"] == plain.wall_updates
    assert summary["envs.rollout"]["children"]["envs.step"] == plain.wall_updates
    assert envs.TrappedCar.step is originals[("htpg.envs:TrappedCar", "step")]


def test_car_invariants_accept_a_real_run_and_catch_a_tampered_one():
    config = _tiny_config(2.0)
    metrics = training.train(config)
    assert bench_workloads.car_invariants(metrics, config.env, config.episodes) == []
    metrics.returns[1] += 150.0
    assert bench_workloads.car_invariants(metrics, config.env, config.episodes)


def test_reference_comparison_is_exact_on_counts_and_tolerant_on_floats():
    ref = {"wall_updates": 10, "final_avg_return_100": 1.0}
    close = {"wall_updates": 10, "final_avg_return_100": 1.0 + 1e-12}
    assert bench_workloads.compare_reference(close, ref) == []
    assert bench_workloads.compare_reference(dict(close, wall_updates=11), ref)
    assert bench_workloads.compare_reference(dict(close, final_avg_return_100=1.1), ref)


def test_workload_inputs_depend_only_on_the_seed():
    for workload in bench_workloads.WORKLOADS.values():
        assert workload.inputs(3) == workload.inputs(3)
        assert workload.inputs(3) != workload.inputs(4)
