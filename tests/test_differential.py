"""Generated-scenario differential tests for the slot-execution path.

A slot has exactly one way to run: the event engine, fed by the
window kernel's batched traffic draws and ``build_many`` DAG builds.
The ways of *driving* it must still agree byte for byte:

* the default window kernel vs ``slot_window=0`` (per-slot builds);
* one ``run`` call vs a segmented ``start`` / ``run_to_barrier`` /
  ``run_to_end`` / ``finish`` with window barriers;
* a fleet run serially vs split over several shards.

The hand-picked goldens in ``test_determinism`` pin a handful of
points; these tests draw pools, policies, workloads, loads, seeds,
HARQ and barrier positions so a divergence anywhere in that space
shows up as a minimal failing example.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.digest import result_digest
from repro.fleet import FleetScenario, Planner
from repro.ran.config import PoolConfig, cell_20mhz_fdd
from repro.scenario import Scenario, build_simulation

#: The paper's 20 MHz 7-cell pool and a small custom 2-cell pool.
POOLS = (
    {"name": "20mhz"},
    PoolConfig(cells=(cell_20mhz_fdd("a"), cell_20mhz_fdd("b")),
               num_cores=3, deadline_us=2000.0),
)

loads = st.sampled_from((0.02, 0.1, 0.3, 0.6, 0.9))
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def scenarios(draw):
    """(scenario, slots, sorted barrier slots)."""
    scenario = Scenario(
        pool=draw(st.sampled_from(POOLS)),
        policy=draw(st.sampled_from(("concordia-noml", "flexran"))),
        workload=draw(st.sampled_from(("none", "redis"))),
        load_fraction=draw(loads),
        seed=draw(seeds),
        harq=draw(st.booleans()),
    )
    slots = draw(st.integers(min_value=6, max_value=30))
    barriers = draw(st.lists(st.integers(min_value=1, max_value=slots - 1),
                             max_size=2, unique=True))
    return scenario, slots, sorted(barriers)


def _digest(scenario: Scenario, slots: int, **kwargs) -> str:
    return result_digest(build_simulation(scenario, **kwargs).run(slots))


def _segmented_digest(scenario: Scenario, slots: int,
                      barriers: list) -> str:
    simulation = build_simulation(scenario)
    simulation.start(slots)
    for slot in barriers:
        simulation.add_window_barrier(slot)
    for slot in barriers:
        simulation.run_to_barrier(slot)
    simulation.run_to_end()
    return result_digest(simulation.finish())


@given(scenarios())
@settings(max_examples=40, deadline=None)
def test_window_per_slot_and_segmented_runs_agree(case):
    scenario, slots, barriers = case
    default = _digest(scenario, slots)
    assert _digest(scenario, slots, slot_window=0) == default
    assert _segmented_digest(scenario, slots, barriers) == default


@given(cells=st.integers(min_value=2, max_value=4),
       shards=st.integers(min_value=2, max_value=4),
       workload=st.sampled_from(("none", "redis")),
       load=loads, seed=seeds, harq=st.booleans(),
       slots=st.integers(min_value=4, max_value=16))
@settings(max_examples=12, deadline=None)
def test_sharded_fleet_matches_serial(cells, shards, workload, load, seed,
                                      harq, slots):
    def digests(num_shards: int) -> dict:
        fleet = FleetScenario(cells=cells, shards=min(num_shards, cells),
                              workload=workload, load_fraction=load,
                              seed=seed, harq=harq, num_slots=slots)
        report = Planner(fleet, jobs=1).run()
        assert report.ok, report.failures
        return report.cell_digests

    serial = digests(1)
    assert len(serial) == cells
    assert digests(shards) == serial
