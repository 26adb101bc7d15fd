"""Byte-identity regression tests for the task-event fast path.

The fast-path optimizations (reusable engine timers, O(1) bitmap
dispatch, task/DAG instance pooling, vectorized DAG construction,
coalesced metrics emission, incremental scheduler tick) are only
admissible because they leave ``SimulationResult`` byte-identical:
no RNG draw may be added, dropped or reordered, and no float may be
accumulated in a different order.

The golden digests below are SHA-256 hashes of the canonical-JSON
result payload (wall-clock telemetry stripped; see
:mod:`repro.exec.digest`), captured on the pre-optimization tree.
They must never change as a side effect of performance work — a
mismatch means a behavioural regression, not a stale test.  Only an
intentional model/semantics change may regenerate them (with
``python -m tests.test_determinism`` printing the current values).

The ``concordia`` (ML) policy has a golden of its own
(:class:`TestConcordiaMlGolden`).  It trains its predictor explicitly
at a fixed profiling budget, with no disk cache and no ``REPRO_SCALE``
dependence, so the digest pins the whole offline phase (dataset,
distance-correlation ranking, backwards elimination, quantile trees)
as well as the online policy.  A second ML golden drives the fig. 8a
sweep's heaviest point (``mix`` at load 1.0), once with a fresh fit and
once with the same fit pickled through the on-disk predictor cache.
``concordia-noml`` exercises the same
pool/scheduler fast path without training.
"""

import json

from repro.core.features import MAX_DCOR_SAMPLES
from repro.core.training import collect_offline_dataset, train_predictor
from repro.exec import ResultCache, activated_cache, run_batch
from repro.exec.digest import result_digest
from repro.experiments import common
from repro.experiments.common import get_predictor, make_spec
from repro.fleet import FleetScenario, Planner, combined_digest
from repro.ran.config import pool_20mhz_7cells
from repro.scenario import Scenario, build_simulation

SLOTS = 80
SEED = 11

#: Fleet golden: a 50-cell metro (20 MHz kind, 40 slots, seed 11) must
#: sample every cell byte-identically regardless of sharding; this is
#: the combined SHA-256 over all 50 per-cell demand-trace digests.
FLEET_CELLS = 50
FLEET_SLOTS = 40
GOLDEN_FLEET_DIGEST = \
    "09afc0cea67eadc9ee0326c89bf6568343c2758f4562286fbec94ab38173d0b9"

#: (policy, workload) -> SHA-256 of the canonical result payload,
#: captured before the fast-path work (fixed 20 MHz / 7-cell pool,
#: load 0.5, seed 11, 80 slots).
GOLDEN_DIGESTS = {
    ("concordia-noml", "none"):
        "9d18158d2eaa7d0ae779756eed3a7ad3dacabe6874646dee593f1e3372c0d77c",
    ("concordia-noml", "redis"):
        "94b52502423062a80c69153f43569403d1764d02b4cf92058769dc3a00314807",
    ("flexran", "none"):
        "05233ba9661b81a50d5039f26ca4c818900dfe8a25080ec814f9057f0036383b",
    ("flexran", "redis"):
        "a3296113bb9479bbb30b7b5150ddea5c40ab06fc48c8ec4e6ecd548f3c1ace89",
}

#: ML golden: profiling slots for the explicit predictor fit.  At this
#: budget LDPC_ENCODE collects more samples than the distance-correlation
#: subsample cap and every other task type fewer, so both ranking paths
#: (subsampled with RNG draws, and full-sample) feed the digest.
ML_TRAINING_SLOTS = 30
#: SHA-256 of the ``concordia``/redis result (load 0.5, seed 11, 80
#: slots) driven by that predictor.
GOLDEN_ML_DIGEST = \
    "af5d6f2009d15087cfc77bde4d7a7089d782018a4b1efb58ce28ca51737ab1f5"
#: SHA-256 of the ``concordia``/mix result (load 1.0, seed 11, 40
#: slots) driven by the same predictor: the fig. 8a sweep's heaviest
#: grid point, where every slot calls the predictor for each task.
ML_MIX_SLOTS = 40
GOLDEN_ML_MIX_DIGEST = \
    "2a9af39a0ad35cb4ca7520f19c0f8efc55caa26b5b4212ff230b01df2c5ff818"
#: Task type -> selected feature columns of the same predictor.
GOLDEN_ML_FEATURES = {
    "channel_estimation": [0, 1, 3, 5, 10, 11],
    "crc_attach": [0, 1, 3, 5, 7, 10],
    "crc_check": [0, 1, 2, 4, 5, 10],
    "demodulation": [0, 1, 4, 5, 6, 10, 11],
    "descrambling": [0, 1, 2, 4, 5, 6, 10, 11],
    "equalization": [0, 1, 3, 5, 10, 11],
    "fft": [1, 2, 4, 5, 6, 10, 13],
    "ifft": [1, 4, 5, 7, 10, 13, 14],
    "ldpc_decode": [0, 1, 2, 5, 7, 10],
    "ldpc_encode": [0, 1, 3, 4, 5, 7, 10],
    "modulation": [0, 1, 3, 5, 6, 7, 10, 11],
    "precoding": [0, 1, 3, 4, 5, 10, 13],
    "rate_dematch": [0, 1, 2, 3, 5, 10, 11],
    "rate_match": [1, 5, 7, 10, 11, 13],
    "scrambling": [0, 1, 5, 7, 10, 11, 13],
}


def _run_digest(policy: str, workload: str) -> str:
    scenario = Scenario(
        pool={"name": "20mhz"},
        policy=policy,
        workload=workload,
        load_fraction=0.5,
        seed=SEED,
    )
    result = build_simulation(scenario).run(SLOTS)
    return result_digest(result)


class TestGoldenDigests:
    def test_all_policy_workload_cells_match_golden(self):
        mismatches = {}
        for (policy, workload), expected in GOLDEN_DIGESTS.items():
            got = _run_digest(policy, workload)
            if got != expected:
                mismatches[(policy, workload)] = got
        assert not mismatches, (
            "result digests drifted from the pre-optimization goldens "
            f"(behavioural regression): {mismatches}")

    def test_digest_is_run_to_run_stable(self):
        first = _run_digest("concordia-noml", "redis")
        second = _run_digest("concordia-noml", "redis")
        assert first == second


def _ml_predictor():
    """(predictor, samples per task type) at the ML golden's budget."""
    dataset = collect_offline_dataset(pool_20mhz_7cells(),
                                      ML_TRAINING_SLOTS, SEED)
    predictor = train_predictor(pool_20mhz_7cells(),
                                num_slots=ML_TRAINING_SLOTS, seed=SEED,
                                dataset=dataset)
    sizes = {t.value: len(dataset.samples[t][1])
             for t in dataset.task_types()}
    return predictor, sizes


def _ml_digest(predictor, workload: str = "redis", load: float = 0.5,
               slots: int = SLOTS) -> str:
    scenario = Scenario(pool={"name": "20mhz"}, policy="concordia",
                        workload=workload, load_fraction=load, seed=SEED)
    result = build_simulation(scenario, predictor=predictor).run(slots)
    return result_digest(result)


def _ml_mix_digest(predictor) -> str:
    return _ml_digest(predictor, workload="mix", load=1.0,
                      slots=ML_MIX_SLOTS)


def _selected_features(predictor) -> dict:
    return {t.value: list(cols)
            for t, cols in predictor.selected_features.items()}


class TestConcordiaMlGolden:
    """The trained-predictor policy end to end, pinned to a golden."""

    def test_train_and_run_match_golden(self):
        predictor, sizes = _ml_predictor()
        assert any(n > MAX_DCOR_SAMPLES for n in sizes.values()), sizes
        assert any(n <= MAX_DCOR_SAMPLES for n in sizes.values()), sizes
        assert _selected_features(predictor) == GOLDEN_ML_FEATURES
        assert _ml_digest(predictor) == GOLDEN_ML_DIGEST, (
            "concordia (ML) digest drifted from the golden "
            "(behavioural regression)")

    def test_mix_full_load_matches_golden(self):
        predictor, _ = _ml_predictor()
        assert _ml_mix_digest(predictor) == GOLDEN_ML_MIX_DIGEST, (
            "concordia (ML) mix/1.0 digest drifted from the golden "
            "(behavioural regression)")

    def test_disk_cached_predictor_matches_golden(self, tmp_path,
                                                  monkeypatch):
        """A predictor pickled by the experiment-side cache and loaded
        back from disk (in-process memo cleared, as in a fresh worker)
        drives the same run as a fresh fit."""
        monkeypatch.setattr(common, "_PREDICTOR_CACHE", {})
        config = pool_20mhz_7cells()
        with activated_cache(ResultCache(tmp_path)):
            trained = get_predictor(config, seed=SEED,
                                    num_slots=ML_TRAINING_SLOTS)
            common._PREDICTOR_CACHE.clear()
            reloaded = get_predictor(config, seed=SEED,
                                     num_slots=ML_TRAINING_SLOTS)
        assert reloaded is not trained
        assert len(list(tmp_path.rglob("*.pkl"))) == 1
        assert _selected_features(reloaded) == GOLDEN_ML_FEATURES
        assert _ml_mix_digest(reloaded) == GOLDEN_ML_MIX_DIGEST


def _fleet_digests(shards: int, jobs: int = 1) -> dict:
    fleet = FleetScenario(cells=FLEET_CELLS, shards=shards,
                          num_slots=FLEET_SLOTS, seed=SEED)
    report = Planner(fleet, jobs=jobs).run()
    assert report.ok, report.failures
    return report.cell_digests


class TestFleetShardingInvariance:
    """serial == ``--shards 4``: per-cell sampling is shard-invariant.

    Per-cell streams are keyed by global cell id, so a 50-cell fleet
    sharded 4 ways must produce byte-identical per-cell demand digests
    to the unsharded serial run — and both must match the golden
    captured when the fleet layer landed.
    """

    def test_serial_matches_golden(self):
        digests = _fleet_digests(shards=1)
        assert len(digests) == FLEET_CELLS
        assert combined_digest(digests) == GOLDEN_FLEET_DIGEST, (
            "fleet sampling drifted from the golden digest "
            "(behavioural regression)")

    def test_four_shards_byte_identical_to_serial(self):
        serial = _fleet_digests(shards=1)
        sharded = _fleet_digests(shards=4)
        assert sharded == serial
        assert combined_digest(sharded) == GOLDEN_FLEET_DIGEST


class TestSerialParallelEquivalence:
    def test_serial_and_two_jobs_byte_identical(self):
        specs = [
            make_spec(pool_20mhz_7cells(), "concordia-noml",
                      workload="redis", num_slots=60, seed=s)
            for s in (11, 12)
        ]
        serial = run_batch(specs, jobs=1, use_cache=False)
        parallel = run_batch(specs, jobs=2, use_cache=False)
        assert [o.status for o in serial.outcomes] == ["ok", "ok"]
        assert [o.status for o in parallel.outcomes] == ["ok", "ok"]
        serial_digests = [result_digest(o.result) for o in serial.outcomes]
        parallel_digests = [result_digest(o.result)
                            for o in parallel.outcomes]
        assert serial_digests == parallel_digests


if __name__ == "__main__":  # pragma: no cover — golden regeneration aid
    current = {
        cell: _run_digest(*cell) for cell in GOLDEN_DIGESTS
    }
    payload = {f"{p}/{w}": d for (p, w), d in current.items()}
    payload["fleet"] = combined_digest(_fleet_digests(shards=1))
    ml_predictor, _ = _ml_predictor()
    payload["concordia/redis"] = _ml_digest(ml_predictor)
    # Online buffers carry state across runs: fit afresh for each one.
    payload["concordia/mix"] = _ml_mix_digest(_ml_predictor()[0])
    payload["concordia/features"] = _selected_features(ml_predictor)
    print(json.dumps(payload, indent=2))
