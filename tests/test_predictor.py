"""Tests for the Concordia predictor and offline training pipeline."""

import copy

import numpy as np
import pytest

from repro.core.models import LinearRegressionWCET
from repro.core.predictor import (
    HANDPICKED_FEATURES,
    ConcordiaPredictor,
    OfflineDataset,
)
from repro.core.training import collect_offline_dataset, train_predictor
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.ran.dag import DagBuilder
from repro.ran.tasks import CostModel, NUM_FEATURES, TaskInstance, TaskType
from repro.ran.ue import SlotLoad


def _synthetic_dataset(n=800, seed=0):
    """Decode runtimes driven by task_codeblocks (feature 10)."""
    rng = np.random.default_rng(seed)
    dataset = OfflineDataset()
    for __ in range(n):
        features = rng.uniform(0, 10, NUM_FEATURES)
        runtime = 25.0 * features[10] + rng.gamma(2.0, 2.0)
        dataset.add(TaskType.LDPC_DECODE, features, runtime)
    return dataset


def _task(features, task_type=TaskType.LDPC_DECODE, base=100.0):
    task = TaskInstance(task_id=0, task_type=task_type, cell_name="c",
                        features=np.asarray(features, dtype=float),
                        base_cost_us=base)
    task.runtime_us = 110.0
    return task


class TestOfflineDataset:
    def test_add_and_arrays(self):
        dataset = _synthetic_dataset(n=10)
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        assert X.shape == (10, NUM_FEATURES)
        assert y.shape == (10,)
        assert len(dataset) == 10

    def test_task_types(self):
        dataset = _synthetic_dataset(n=5)
        assert dataset.task_types() == [TaskType.LDPC_DECODE]


class TestPredictor:
    def test_fit_selects_relevant_feature(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        selected = predictor.selected_features[TaskType.LDPC_DECODE]
        assert 10 in selected  # task_codeblocks drives the runtime

    def test_handpicked_always_selected(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        selected = predictor.selected_features[TaskType.LDPC_DECODE]
        assert set(HANDPICKED_FEATURES) <= set(selected)

    def test_prediction_covers_runtime(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        rng = np.random.default_rng(1)
        covered = 0
        for __ in range(200):
            features = rng.uniform(0, 10, NUM_FEATURES)
            truth = 25.0 * features[10] + rng.gamma(2.0, 2.0)
            predicted = predictor.predict_task(_task(features))
            covered += predicted >= truth
        assert covered / 200 > 0.9

    def test_unmodelled_task_returns_none(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        task = _task(np.zeros(NUM_FEATURES), task_type=TaskType.FFT)
        assert predictor.predict_task(task) is None

    def test_observe_updates_online_buffer(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        features = np.full(NUM_FEATURES, 5.0)
        task = _task(features)
        before = predictor.predict_task(task)
        task.runtime_us = before + 500.0
        predictor.observe_task(task)
        assert predictor.predict_task(task) == pytest.approx(before + 500.0)
        assert predictor.observations_made == 1

    def test_min_samples_skips_sparse_tasks(self):
        dataset = _synthetic_dataset(n=10)
        predictor = ConcordiaPredictor().fit_offline(dataset,
                                                     min_samples=100)
        assert TaskType.LDPC_DECODE not in predictor.models

    def test_custom_model_factory(self):
        predictor = ConcordiaPredictor(
            model_factory=LinearRegressionWCET
        ).fit_offline(_synthetic_dataset())
        model = predictor.models[TaskType.LDPC_DECODE]
        assert isinstance(model, LinearRegressionWCET)


class TestRouteOnce:
    """``predict_task`` routes a task once; ``observe_task`` reuses it."""

    @staticmethod
    def _route_twice(models, selected, task):
        """The reference: route the task afresh for each call."""
        model = models[task.task_type]
        x = task.features[selected[task.task_type]]
        predicted = model.predict(x)
        model.observe(x, task.runtime_us)
        return predicted, model.predict(x)

    @pytest.mark.parametrize("factory", [None, LinearRegressionWCET])
    def test_predict_observe_predict_matches_route_twice(self, factory):
        predictor = ConcordiaPredictor(model_factory=factory).fit_offline(
            _synthetic_dataset())
        if factory is None:
            # Empty leaves too: the global-max fallback, then refills.
            predictor.models[TaskType.LDPC_DECODE].tree.reset_online()
        models = copy.deepcopy(predictor.models)
        rng = np.random.default_rng(4)
        for step in range(300):
            task = _task(rng.uniform(0, 10, NUM_FEATURES))
            task.runtime_us = float(rng.gamma(2.0, 60.0 + step))
            first = predictor.predict_task(task)
            predictor.observe_task(task)
            second = predictor.predict_task(task)
            assert (first, second) == self._route_twice(
                models, predictor.selected_features, task)
        assert predictor.observations_made == 300

    def test_observe_without_prediction_is_a_no_op(self):
        predictor = ConcordiaPredictor().fit_offline(_synthetic_dataset())
        predictor.observe_task(_task(np.full(NUM_FEATURES, 5.0)))
        assert predictor.observations_made == 0

    def test_recycled_unmodelled_task_leaves_old_leaf_alone(self):
        """A task object reused for an unmodelled type must not push its
        runtime into the leaf its previous (modelled) use routed to."""
        rng = np.random.default_rng(0)
        dataset = OfflineDataset()
        for _ in range(400):
            features = rng.uniform(0, 10, NUM_FEATURES)
            dataset.add(TaskType.FFT, features, 20.0 + features[0])
        predictor = ConcordiaPredictor().fit_offline(dataset)
        assert set(predictor.models) == {TaskType.FFT}
        builder = DagBuilder(CostModel(rng=np.random.default_rng(0)),
                             rng=np.random.default_rng(1))
        cell = cell_20mhz_fdd()
        # An idle uplink slot is a lone FFT task.
        first = builder.build(SlotLoad(cell.name, 0, True, []), cell,
                              0.0, 2000.0)
        (fft,) = first.tasks
        predictor.predict_task(fft)
        leaf = fft.wcet_route
        before = (len(leaf), leaf.max())
        builder.recycle_dag(first)
        # An idle downlink slot starts with a modulation task, built
        # from the recycled FFT object.
        second = builder.build(SlotLoad(cell.name, 1, False, []), cell,
                               1000.0, 3000.0)
        reused = second.tasks[0]
        assert reused is fft and reused.task_type is TaskType.MODULATION
        assert predictor.predict_task(reused) is None
        reused.runtime_us = 1e6
        predictor.observe_task(reused)
        assert (len(leaf), leaf.max()) == before
        assert predictor.observations_made == 0


class TestTrainingPipeline:
    @pytest.fixture(scope="class")
    def small_pool(self):
        return PoolConfig(cells=(cell_20mhz_fdd(),), num_cores=4,
                          deadline_us=2000.0)

    def test_collect_offline_dataset(self, small_pool):
        dataset = collect_offline_dataset(small_pool, num_slots=150,
                                          seed=11)
        assert len(dataset) > 500
        types = set(dataset.task_types())
        assert TaskType.LDPC_DECODE in types
        assert TaskType.FFT in types
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        assert (y > 0).all()
        assert X.shape[1] == NUM_FEATURES

    def test_train_predictor_end_to_end(self, small_pool):
        predictor = train_predictor(small_pool, num_slots=250, seed=11)
        assert TaskType.LDPC_DECODE in predictor.models
        # A realistic decode task must receive a sane prediction.
        dataset = collect_offline_dataset(small_pool, num_slots=30, seed=12)
        X, y = dataset.arrays(TaskType.LDPC_DECODE)
        task = _task(X[0])
        predicted = predictor.predict_task(task)
        assert predicted is not None
        assert 0 < predicted < 50 * max(y)
