"""Worker pool executor: backends agree, coalescing, perf wiring, warm modes."""

import json
import multiprocessing
import os
import signal
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core.cache import PulseLibrary
from repro.circuits.gates import Gate
from repro.core.engines import CompileRecord, GrapeEngine, engine_spec
from repro.grouping.group import GateGroup
from repro.core.pipeline import AccQOC
from repro.perf.instrument import PerfRecorder
from repro.service import CompileService, PulseStore
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
from repro.workloads import build_named, qft


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


# ---------------------------------------------------------- the local pool
class _SignalsItselfGrape(GrapeEngine):
    """A GrapeEngine whose first solve in a pool worker sends ``signum`` to
    that worker. The solve that removes the ``token`` file is the one, so
    exactly one worker signals itself, once."""

    def __init__(self, signum, token):
        config = PipelineConfig()
        super().__init__(config.physics, config.run.fast())
        self.signum = signum
        self.token = str(token)
        self.parent = os.getpid()

    def compile_group(self, *args, **kwargs):
        if os.getpid() != self.parent:
            try:
                os.remove(self.token)
            except FileNotFoundError:
                pass
            else:
                os.kill(os.getpid(), self.signum)
        return super().compile_group(*args, **kwargs)


def _grape_service(tmp_path, name, engine=None, backend="process", n_workers=2):
    config = PipelineConfig(policy_name="map2b4l")
    if engine is None:
        engine = GrapeEngine(config.physics, config.run.fast())
    return CompileService(
        PulseStore(str(tmp_path / name)),
        config,
        engine=engine,
        backend=backend,
        n_workers=n_workers,
    )


def _stored(service):
    return {
        entry.group.key(): (entry.latency, entry.pulse.amplitudes.tobytes())
        for entry in service.store.snapshot().entries()
        if entry.pulse is not None
    }


@pytest.fixture(scope="module")
def serial_qft3(tmp_path_factory):
    """The serial oracle's store after one qft_3 batch on GRAPE."""
    service = _grape_service(tmp_path_factory.mktemp("oracle"), "s", backend="serial")
    service.submit_batch([qft(3)])
    return _stored(service)


def _new_children(before):
    return set(multiprocessing.active_children()) - before


def test_pool_forks_once_per_service_and_close_reaps_it(tmp_path, serial_qft3):
    """Constructing the service forks nothing; the first GRAPE batch forks
    two workers, the next batch reuses them, and ``close`` reaps them."""
    before = set(multiprocessing.active_children())
    service = _grape_service(tmp_path, "pool", backend="thread")
    assert not _new_children(before)
    assert service.submit_batch([qft(3)]).n_compiled >= 2
    workers = _new_children(before)
    assert len(workers) == 2
    assert service.submit_batch([qft(4)]).n_compiled >= 2
    assert _new_children(before) == workers
    service.close()
    assert not _new_children(before)
    assert [worker.exitcode for worker in workers] == [0, 0]
    assert {k: v for k, v in _stored(service).items() if k in serial_qft3} == serial_qft3


def test_worker_killed_mid_batch_fails_the_batch_and_the_next_forks_afresh(
    tmp_path, serial_qft3
):
    """A SIGKILLed worker breaks the pool: the batch raises
    ``BrokenProcessPool``, releases every claim, and leaves no worker
    behind; the next batch forks a new pool and stores the serial pulses."""
    before = set(multiprocessing.active_children())
    token = tmp_path / "token"
    token.touch()
    service = _grape_service(
        tmp_path, "pool", engine=_SignalsItselfGrape(signal.SIGKILL, token)
    )
    with pytest.raises(BrokenProcessPool):
        service.submit_batch([qft(3)])
    assert not token.exists()
    assert len(service.coalescer._in_flight) == 0
    assert not _new_children(before)
    report = service.submit_batch([qft(3)])
    assert report.n_compiled >= 2
    assert len(_new_children(before)) == 2
    assert _stored(service) == serial_qft3
    service.close()
    assert not _new_children(before)


def test_pool_workers_ignore_sigint(tmp_path, serial_qft3):
    """A SIGINT that reaches a worker (a terminal's Ctrl-C goes to the
    whole process group) does not interrupt its solve: the parent's
    graceful drain decides when the workers stop."""
    token = tmp_path / "token"
    token.touch()
    service = _grape_service(
        tmp_path, "pool", engine=_SignalsItselfGrape(signal.SIGINT, token)
    )
    try:
        service.submit_batch([qft(3)])
    finally:
        service.close()
    assert not token.exists()
    assert _stored(service) == serial_qft3


def test_concurrent_batches_fork_one_pool(tmp_path):
    """Four threads race their first GRAPE batches onto one service whose
    pool has three workers, more than a 2-vCPU box's cores: exactly one
    pool is forked, and every batch completes on it."""
    before = set(multiprocessing.active_children())
    service = _grape_service(tmp_path, "pool", n_workers=3)
    programs = [qft(3), qft(4), build_named("ex2"), build_named("4gt4-v0")]
    barrier = threading.Barrier(len(programs))
    reports, errors = [], []

    def submit(program):
        barrier.wait(timeout=30)
        try:
            reports.append(service.submit_batch([program]))
        except BaseException as error:  # reported below, not lost
            errors.append(error)

    threads = [threading.Thread(target=submit, args=(p,)) for p in programs]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        forked = _new_children(before)
    finally:
        sys.setswitchinterval(previous)
        service.close()
    assert not [thread for thread in threads if thread.is_alive()]
    assert errors == []
    assert len(forked) == 3
    assert len(reports) == len(programs)
    assert all(r.overall_latency > 0 for b in reports for r in b.requests)
    assert not _new_children(before)


def test_model_engine_batches_start_no_process(tmp_path):
    """Constructing a service forks nothing, and a model-engine batch on
    the default backend runs in the calling thread."""
    before = set(multiprocessing.active_children())
    service = CompileService(
        PulseStore(str(tmp_path / "s")),
        PipelineConfig(policy_name="map2b4l"),
        backend="thread",
        n_workers=2,
    )
    assert not _new_children(before)
    assert service.submit_batch([qft(5)]).n_compiled >= 2
    assert not _new_children(before)
    service.close()


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
