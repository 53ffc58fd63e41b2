"""Unit and integration tests for the DDP trainer and workers."""

import numpy as np
import pytest

from repro.compression.registry import make_scheme
from repro.simulator.gpu import Precision
from repro.training.data import SyntheticTeacherDataset
from repro.training.ddp import DDPTrainer, TrainingHistory
from repro.training.models import MLPClassifier
from repro.training.worker import DDPWorker
from repro.training.workloads import vgg19_tinyimagenet


@pytest.fixture
def workload():
    return vgg19_tinyimagenet()


@pytest.fixture
def dataset(workload):
    return SyntheticTeacherDataset(
        num_examples=1024,
        num_test_examples=256,
        input_dim=workload.sim_input_dim,
        num_classes=workload.sim_num_classes,
        seed=0,
    )


@pytest.fixture
def model(workload):
    return MLPClassifier(
        workload.sim_input_dim, workload.sim_hidden_dims, workload.sim_num_classes, seed=1
    )


def make_trainer(model, dataset, workload, scheme_name="baseline_fp16", **kwargs):
    return DDPTrainer(
        model=model,
        dataset=dataset,
        scheme=make_scheme(scheme_name),
        workload=workload,
        **kwargs,
    )


class TestDDPWorker:
    def test_compute_gradient_shapes(self, dataset, model):
        worker = DDPWorker(0, dataset.worker_shard(0, 4), batch_size=8, seed=0)
        loss, gradient = worker.compute_gradient(model)
        assert gradient.shape == (model.num_parameters,)
        assert np.isfinite(loss)

    def test_different_workers_different_batches(self, dataset, model):
        workers = [
            DDPWorker(rank, dataset.worker_shard(rank, 4), batch_size=8, seed=0)
            for rank in range(2)
        ]
        _, grad_a = workers[0].compute_gradient(model)
        _, grad_b = workers[1].compute_gradient(model)
        assert not np.allclose(grad_a, grad_b)

    def test_invalid_parameters(self, dataset):
        with pytest.raises(ValueError):
            DDPWorker(-1, dataset.worker_shard(0, 2), 8)
        with pytest.raises(ValueError):
            DDPWorker(0, dataset.worker_shard(0, 2), 0)


class TestDDPTrainer:
    def test_training_improves_accuracy(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=20)
        history = trainer.run(120)
        assert history.evaluations[-1].metrics["accuracy"] > history.evaluations[0].metrics[
            "accuracy"
        ]

    def test_history_structure(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(30)
        assert isinstance(history, TrainingHistory)
        assert history.num_rounds == 30
        assert history.times().size == len(history.evaluations)
        assert history.round_seconds > 0
        assert history.throughput_rounds_per_second() == pytest.approx(
            1.0 / history.round_seconds
        )

    def test_sim_time_is_round_times_round_seconds(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(20)
        last = history.evaluations[-1]
        assert last.sim_time_seconds == pytest.approx(20 * trainer.round_seconds)

    def test_round_time_uses_paper_scale_costs(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload)
        compute = workload.compute_seconds_for(Precision.TF32)
        assert trainer.round_seconds > compute
        assert trainer.round_cost_estimate.communication_seconds > 0

    def test_fp16_round_faster_than_fp32(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        fp16 = make_trainer(model_a, dataset, workload, "baseline_fp16")
        fp32 = make_trainer(model_b, dataset, workload, "baseline_fp32")
        assert fp16.round_seconds < fp32.round_seconds

    def test_compressed_round_faster_than_fp16(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        fp16 = make_trainer(model_a, dataset, workload, "baseline_fp16")
        topkc = make_trainer(model_b, dataset, workload, "topkc_b2")
        assert topkc.round_seconds < fp16.round_seconds

    def test_default_round_is_fully_serialized(self, dataset, workload):
        model = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        trainer = make_trainer(model, dataset, workload)
        compute = workload.compute_seconds_for(Precision.TF32)
        costs = trainer.round_cost_estimate
        assert trainer.round_seconds == pytest.approx(
            compute + costs.compression_seconds + costs.communication_seconds
        )
        assert trainer.round_pipeline.overlap_efficiency == pytest.approx(0.0)

    def test_bucketed_pipeline_shortens_round(self, dataset, workload):
        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        serialized = make_trainer(model_a, dataset, workload)
        pipelined = make_trainer(model_b, dataset, workload, num_buckets=8)
        assert pipelined.round_seconds < serialized.round_seconds
        compute = workload.compute_seconds_for(Precision.TF32)
        assert pipelined.round_seconds >= compute

    def test_straggler_cluster_lengthens_round(self, dataset, workload):
        from repro.simulator.cluster import paper_testbed

        model_a = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        model_b = MLPClassifier(workload.sim_input_dim, (32,), workload.sim_num_classes)
        base = make_trainer(model_a, dataset, workload, num_buckets=4)
        slowdown = 1.5
        straggler = make_trainer(
            model_b,
            dataset,
            workload,
            num_buckets=4,
            cluster=paper_testbed().with_straggler(1, slowdown),
        )
        assert straggler.round_seconds > base.round_seconds
        compute = workload.compute_seconds_for(Precision.TF32)
        assert straggler.round_seconds >= compute * slowdown

    def test_rejects_zero_buckets(self, model, dataset, workload):
        with pytest.raises(ValueError):
            make_trainer(model, dataset, workload, num_buckets=0)

    def test_stopping_criterion_halts_early(self, model, dataset, workload):
        class StopImmediately:
            def update(self, value: float) -> bool:
                return True

        trainer = make_trainer(model, dataset, workload, eval_every=5)
        history = trainer.run(100, stopping=StopImmediately())
        assert history.num_rounds <= 5

    def test_invalid_parameters(self, model, dataset, workload):
        with pytest.raises(ValueError):
            make_trainer(model, dataset, workload, eval_every=0)
        trainer = make_trainer(model, dataset, workload)
        with pytest.raises(ValueError):
            trainer.run(0)

    def test_history_metrics_helpers(self, model, dataset, workload):
        trainer = make_trainer(model, dataset, workload, eval_every=10)
        history = trainer.run(40)
        assert history.final_metric() == history.evaluations[-1].metrics["accuracy"]
        assert history.best_metric() >= history.evaluations[0].metrics["accuracy"]
