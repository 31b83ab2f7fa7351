"""Worker pool executor: backends agree, coalescing, perf wiring, warm modes."""

import json
import threading

import numpy as np
import pytest

from repro.core.cache import PulseLibrary
from repro.circuits.gates import Gate
from repro.core.engines import CompileRecord, GrapeEngine, engine_spec
from repro.grouping.group import GateGroup
from repro.core.pipeline import AccQOC
from repro.perf.instrument import PerfRecorder
from repro.service.executor import (
    GroupCoalescer,
    GroupTask,
    WorkerPoolExecutor,
    decode_outcome,
    encode_part,
    make_backend,
    run_part,
    run_part_payload,
    seed_tag_for,
)
from repro.service.planner import CompilePlanner
from repro.utils.config import PipelineConfig
from repro.workloads import build_named


@pytest.fixture(scope="module")
def pipeline():
    return AccQOC(PipelineConfig(policy_name="map2b4l"))


@pytest.fixture(scope="module")
def plan(pipeline):
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named("4gt4-v0")])
    return planner.cut(plan, plan.uncovered, 3)


def _records(pipeline, plan, backend, n_workers=3, warm="store"):
    executor = WorkerPoolExecutor(
        pipeline.engine, backend=backend, n_workers=n_workers, warm=warm
    )
    return executor.run(plan, PulseLibrary())


def test_backends_agree(pipeline, plan):
    serial = _records(pipeline, plan, "serial")
    threaded = _records(pipeline, plan, "thread")
    process = _records(pipeline, plan, "process")
    assert len(serial) == len(plan.uncovered)
    for a, b, c in zip(serial, threaded, process):
        assert a.latency == b.latency == c.latency
        assert a.iterations == b.iterations == c.iterations


def test_store_mode_is_worker_count_invariant(pipeline):
    """The service invariant: records don't depend on the partition."""
    planner = CompilePlanner(pipeline)
    by_workers = {}
    for k in (1, 2, 4):
        plan_k = planner.plan([build_named("4gt4-v0")])
        plan_k = planner.cut(plan_k, plan_k.uncovered, k)
        records = _records(pipeline, plan_k, "serial", n_workers=k)
        by_workers[k] = {
            plan_k.uncovered[i].key(): (r.latency, r.iterations)
            for i, r in enumerate(records)
        }
    assert by_workers[1] == by_workers[2] == by_workers[4]


def test_chain_mode_saves_iterations(pipeline, plan):
    """Within-part MST chaining warm-starts children: fewer modelled
    iterations than the partition-independent store seeding."""
    store_total = sum(r.iterations for r in _records(pipeline, plan, "serial"))
    chain_total = sum(
        r.iterations
        for r in _records(pipeline, plan, "serial", warm="chain")
    )
    assert chain_total < store_total


def test_grape_pulses_identical_across_backends(pipeline):
    """Real pulses, not just modelled numbers, are backend-invariant."""
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named("4gt4-v0")])
    plan = planner.cut(plan, plan.uncovered, 2)
    config = PipelineConfig()
    engine = GrapeEngine(config.physics, config.run.fast())
    outs = []
    for backend in ("serial", "process"):
        executor = WorkerPoolExecutor(engine, backend=backend, n_workers=2)
        outs.append(executor.run(plan, PulseLibrary()))
    for a, b in zip(*outs):
        assert a.latency == b.latency
        assert np.array_equal(a.pulse.amplitudes, b.pulse.amplitudes)


def test_batched_seeds_match_per_pair_oracle(pipeline, plan):
    """best_library_seeds (Gram-matrix batch) == best_library_seed loop."""
    from repro.core.cache import LibraryEntry
    from repro.core.dynamic import best_library_seed, best_library_seeds
    from repro.qoc.pulse import Pulse

    library = PulseLibrary()
    rng = np.random.default_rng(5)
    for group in plan.uncovered[::2]:  # seed half the groups' pulses
        library.add(
            LibraryEntry(
                group=group,
                pulse=Pulse(
                    rng.uniform(-0.05, 0.05, size=(6, 5)),
                    dt=2.0,
                    control_labels=["X0", "Y0", "X1", "Y1", "XX01"],
                    n_qubits=2,
                ),
                latency=20.0,
                iterations=3,
            )
        )
    batched = best_library_seeds(plan.uncovered, library)
    for group, (pulse, source) in zip(plan.uncovered, batched):
        expected_pulse, expected_source = best_library_seed(group, library)
        assert (pulse is None) == (expected_pulse is None)
        if source is not None:
            assert source.key() == expected_source.key()


def test_part_crosses_the_wire_bit_for_bit():
    """A part through the fabric's JSON schema (encode, the worker's
    ``run_part_payload``, decode) gives exactly the records ``run_part``
    gives in process: a GRAPE task on a group whose wire order is not
    ascending, seeded from a stored pulse and its source group."""
    engine = GrapeEngine(
        PipelineConfig().physics, PipelineConfig().run.fast()
    )
    source = GateGroup(gates=[Gate("cx", (0, 1))])
    group = GateGroup(
        gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (0.3,))], qubits=(1, 0)
    )
    tasks = [
        GroupTask(
            group=group,
            seed_tag=seed_tag_for(group),
            seed_pulse=engine.compile_group(source, seed_tag="seed").pulse,
            seed_source=source,
        )
    ]
    wire = json.loads(json.dumps(encode_part(engine_spec(engine), 3, tasks)))
    reply = json.loads(json.dumps(run_part_payload(wire)))
    outcome = decode_outcome(reply, len(tasks))
    reference = run_part(engine, 3, tasks)
    assert outcome.worker == 3
    assert outcome.perf_counters == reference.perf_counters
    for mine, ref in zip(outcome.records, reference.records):
        assert mine.pulse.amplitudes.tobytes() == ref.pulse.amplitudes.tobytes()
        assert vars(mine.pulse).keys() == vars(ref.pulse).keys()
        assert {**vars(mine), "pulse": None} == {**vars(ref), "pulse": None}


@pytest.mark.parametrize(
    "mangle",
    [
        lambda p: "gASVAAAA",  # a base64 pickle frame
        lambda p: [p],
        lambda p: {k: v for k, v in p.items() if k != "wall_s"},
        lambda p: {**p, "records": p["records"] * 2},
        lambda p: {**p, "worker": "0"},
        lambda p: {**p, "wall_s": 10**400},
        lambda p: {**p, "records": [{**p["records"][0], "converged": 1}]},
        lambda p: {**p, "records": [{**p["records"][0], "latency": "4.0"}]},
        lambda p: {**p, "perf_counters": {"groups": 1.5}},
    ],
    ids=[
        "pickle", "not-object", "missing-key", "extra-records",
        "string-worker", "huge-number", "int-bool", "string-latency",
        "float-counter",
    ],
)
def test_malformed_outcome_payload_is_a_value_error(pipeline, mangle):
    """The dispatcher trusts no outcome: each malformed shape raises
    ``ValueError``, the error the fabric requeues a part on."""
    group = GateGroup(gates=[Gate("cx", (0, 1))])
    tasks = [GroupTask(group=group, seed_tag=seed_tag_for(group))]
    payload = run_part_payload(
        encode_part(engine_spec(pipeline.engine), 0, tasks)
    )
    assert decode_outcome(payload, len(tasks)).records[0].iterations > 0
    with pytest.raises(ValueError):
        decode_outcome(mangle(payload), len(tasks))


def test_malformed_pulse_in_an_outcome_is_a_value_error():
    """Pulse amplitudes must be a matrix of numbers and labels strings."""
    engine = GrapeEngine(
        PipelineConfig().physics, PipelineConfig().run.fast()
    )
    group = GateGroup(gates=[Gate("x", (0,))])
    tasks = [GroupTask(group=group, seed_tag=seed_tag_for(group))]
    payload = run_part_payload(encode_part(engine_spec(engine), 0, tasks))
    pulse = payload["records"][0]["pulse"]
    decode_outcome(payload, 1)
    for bad in (
        {**pulse, "amplitudes": [[0.1, "0.2"]]},
        {**pulse, "amplitudes": [[0.1], [0.2, 0.3]]},
        {**pulse, "amplitudes": [0.1, 0.2]},
        {**pulse, "control_labels": [1, 2]},
        {k: v for k, v in pulse.items() if k != "dt"},
    ):
        record = {**payload["records"][0], "pulse": bad}
        with pytest.raises(ValueError):
            decode_outcome({**payload, "records": [record]}, 1)


def test_seed_tags_are_positional_free(plan):
    tags = [seed_tag_for(g) for g in plan.uncovered]
    assert len(set(tags)) == len(tags)
    assert all(t.startswith("svc:") for t in tags)
    # same group, different occurrence object -> same tag
    assert seed_tag_for(plan.uncovered[0]) == tags[0]


def test_perf_wiring_per_worker(pipeline, plan):
    perf = PerfRecorder()
    executor = WorkerPoolExecutor(
        pipeline.engine, backend="serial", n_workers=3, perf=perf
    )
    executor.run(plan, PulseLibrary())
    worker_stages = [n for n in perf.stages if n.startswith("execute.worker")]
    assert any(n.endswith(".wall") for n in worker_stages)
    assert any(n.endswith(".solve") for n in worker_stages)
    total_groups = sum(
        v for n, v in perf.counters.items() if n.endswith(".groups")
    )
    assert total_groups == len(plan.uncovered)


def test_run_indices_partial(pipeline, plan):
    executor = WorkerPoolExecutor(pipeline.engine, backend="serial")
    wanted = list(range(0, len(plan.uncovered), 2))
    records = executor.run_indices(plan, PulseLibrary(), wanted)
    for i, record in enumerate(records):
        assert (record is not None) == (i in set(wanted))


def test_make_backend_rejects_unknown():
    with pytest.raises(ValueError):
        make_backend("gpu", 2)


# ------------------------------------------------------------- coalescing
def test_coalescer_single_owner():
    coalescer = GroupCoalescer()
    owned, future = coalescer.claim(b"k")
    assert owned
    again, shared_future = coalescer.claim(b"k")
    assert not again
    record = CompileRecord(latency=1.0, iterations=2, converged=True)
    coalescer.resolve(b"k", record)
    assert shared_future.result(timeout=1) is record
    assert coalescer.coalesced == 1
    # key released: next claim owns again
    owned2, _ = coalescer.claim(b"k")
    assert owned2


def test_coalescer_failure_propagates():
    coalescer = GroupCoalescer()
    coalescer.claim(b"k")
    _, future = coalescer.claim(b"k")
    coalescer.fail(b"k", RuntimeError("boom"))
    with pytest.raises(RuntimeError):
        future.result(timeout=1)


def test_coalescer_under_concurrency():
    """Many threads race for one key while it is in flight: exactly one
    owner; everyone who claimed during the flight gets the owner's record."""
    coalescer = GroupCoalescer()
    owners = []
    results = []
    claim_barrier = threading.Barrier(8)
    all_claimed = threading.Barrier(8)
    record = CompileRecord(latency=3.0, iterations=1, converged=True)

    def worker():
        claim_barrier.wait()
        owned, future = coalescer.claim(b"key")
        all_claimed.wait()  # hold the flight open until everyone claimed
        if owned:
            owners.append(1)
            coalescer.resolve(b"key", record)
            results.append(record)
        else:
            results.append(future.result(timeout=2))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert len(owners) == 1
    assert len(results) == 8
    assert all(r is record for r in results)
