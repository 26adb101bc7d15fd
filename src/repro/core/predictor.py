"""The Concordia WCET predictor (paper §4).

One prediction model per signal-processing task type.  The offline
phase (``fit_offline``) runs Algorithm 1 on a profiling dataset
collected with the vRAN in isolation: distance-correlation ranking,
backwards elimination, union with hand-picked features, then a quantile
decision tree per task.  At runtime, ``predict_task`` routes a task's
feature vector to a leaf and returns the max of the leaf's ring buffer,
and ``observe_task`` feeds observed runtimes back (Algorithm 2's
training step), letting the leaf buffers absorb collocation-induced
distribution shifts without re-growing the trees.

Each task is routed once: ``predict_task`` keeps the leaf it reached on
the task (``TaskInstance.wcet_route``) and ``observe_task`` pushes into
that leaf.  Routing is deterministic and depends only on the task's
features, so this is the leaf a second walk would reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..ran.tasks import FEATURE_INDEX, TaskInstance, TaskType
from .features import select_features
from .models import QuantileTreeWCET, WcetModel
from .quantile_tree import TreeConfig

__all__ = ["ConcordiaPredictor", "OfflineDataset", "HANDPICKED_FEATURES"]

#: Domain-expert features always kept per Algorithm 1 (X_t^h): the work
#: size of the task itself, the slot volume and the worst link margin.
HANDPICKED_FEATURES = (
    FEATURE_INDEX["task_codeblocks"],
    FEATURE_INDEX["slot_bytes"],
    FEATURE_INDEX["min_snr_margin_db"],
)


class _QuantileTreeFactory:
    """Default per-task model factory.

    A class (not a lambda) so trained predictors stay picklable for
    the on-disk predictor cache (:mod:`repro.exec`).
    """

    def __init__(self, tree_config: Optional[TreeConfig] = None) -> None:
        self.tree_config = tree_config

    def __call__(self) -> QuantileTreeWCET:
        return QuantileTreeWCET(self.tree_config)


@dataclass
class OfflineDataset:
    """Profiling samples grouped per task type."""

    samples: dict = field(default_factory=dict)  # TaskType -> (list[X], list[y])

    def add(self, task_type: TaskType, features: np.ndarray,
            runtime: float) -> None:
        bucket = self.samples.setdefault(task_type, ([], []))
        bucket[0].append(np.asarray(features, dtype=np.float64))
        bucket[1].append(float(runtime))

    def arrays(self, task_type: TaskType) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = self.samples[task_type]
        return np.vstack(xs), np.asarray(ys, dtype=np.float64)

    def task_types(self) -> list[TaskType]:
        return list(self.samples.keys())

    def __len__(self) -> int:
        return sum(len(ys) for _, ys in self.samples.values())


class ConcordiaPredictor:
    """Per-task-type parameterized WCET prediction."""

    def __init__(
        self,
        model_factory: Optional[Callable[[], WcetModel]] = None,
        tree_config: Optional[TreeConfig] = None,
        handpicked: tuple = HANDPICKED_FEATURES,
        top_n: int = 8,
        keep_m: int = 5,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if model_factory is None:
            model_factory = _QuantileTreeFactory(tree_config)
        self._model_factory = model_factory
        self.handpicked = handpicked
        self.top_n = top_n
        self.keep_m = keep_m
        self.rng = rng if rng is not None else np.random.default_rng(23)
        self.models: dict[TaskType, WcetModel] = {}
        self.selected_features: dict[TaskType, list[int]] = {}
        self.predictions_made = 0
        self.observations_made = 0

    # -- offline phase ---------------------------------------------------------

    def fit_offline(self, dataset: OfflineDataset,
                    min_samples: int = 100,
                    task_types=None) -> "ConcordiaPredictor":
        """Algorithm 1 for each profiled task type.

        ``task_types`` optionally restricts fitting to a subset (e.g.
        when only the coding tasks are being studied).
        """
        for task_type in dataset.task_types():
            if task_types is not None and task_type not in task_types:
                continue
            X, y = dataset.arrays(task_type)
            if len(y) < min_samples:
                continue
            selected = select_features(
                X, y,
                handpicked=self.handpicked,
                top_n=self.top_n,
                keep_m=self.keep_m,
                rng=self.rng,
            )
            model = self._model_factory()
            model.fit(X[:, selected], y)
            model.bind_columns(selected)
            self.models[task_type] = model
            self.selected_features[task_type] = selected
        return self

    # -- online phase -------------------------------------------------------------

    def predict_task(self, task: TaskInstance) -> Optional[float]:
        """WCET prediction for a task instance (None when unmodelled)."""
        model = self.models.get(task.task_type)
        if model is None:
            return None
        self.predictions_made += 1
        handle = model.route(task.features)
        task.wcet_route = handle
        return model.predict_routed(handle)

    def observe_task(self, task: TaskInstance) -> None:
        """Feed one observed runtime back where ``predict_task`` routed
        the task (a no-op for unmodelled or unpredicted tasks)."""
        handle = task.wcet_route
        if handle is None or task.runtime_us is None:
            return
        self.observations_made += 1
        handle.push(task.runtime_us)
