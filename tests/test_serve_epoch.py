"""Every routed request of an epoch rides one engine call (DESIGN.md §12).

``tests/test_serve.py`` holds the serving contracts (queueing, epochs,
store integration); this module pins what the replay hands the store —
by call counts, never wall-clock — and that serving through the batch
result is bit-identical to routing each put by itself: a digest recorded
at the parent commit (PR 23), where ``_resolve`` still called
``store.put`` for every put.
"""

import hashlib
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.replication.store as store_module
import repro.serve.service as service_module
import repro.util.ids as ids_module
from repro.dht.chord import ChordNetwork
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle
from repro.faults import FaultInjector, FaultPlan
from repro.metrics import MemorySink, MetricsRegistry, SpanRecorder
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.serve import DHTService, Request, ServiceConfig

NAMES = [f"k{j}" for j in range(11)]

QUORUM = ReplicationPolicy(replicas=2, consistency="quorum")
CHAIN = ReplicationPolicy(replicas=2, consistency="chain", placement="ring_scoped")
POLICIES = {"quorum": QUORUM, "chain": CHAIN, "storeless": None}


@pytest.fixture(scope="module")
def bundle():
    return build_bundle(SimConfig(model="ts", n_peers=300, n_landmarks=4, depth=2, seed=42))


def mixed_stream(net, n, *, scene="churn", injector=None):
    """``n`` gets/puts (1 in 4 a put) over 11 names at 2 ms spacing from
    the first 50 peers (the first 50 ``injector`` has not crashed).

    ``"steady"`` has no wave; under ``"churn"`` three of the keys' owners
    leave a third of the way in and rejoin at two thirds; under
    ``"inside"`` the three are clients too, so their requests fail while
    they are away.  Returns the requests and the wave."""
    up = [p for p in range(net.n_peers) if injector is None or not injector.state.is_dead(p)]
    clients = up[:50]
    owners = sorted({net.owner_of(int(net.space.hash_key(name))) for name in NAMES})
    wave = tuple(p for p in owners if p not in clients)[:3]
    assert len(wave) == 3
    if scene == "inside":
        clients[-3:] = wave
    reqs = [
        Request(op="put", at_ms=2.0 * i, source=clients[i % 50], name=NAMES[i % 11], value=f"v{i}")
        if i % 4 == 0
        else Request(op="get", at_ms=2.0 * i, source=clients[i % 50], name=NAMES[i % 11])
        for i in range(n)
    ]
    if scene != "steady":
        reqs.insert(2 * n // 3, Request(op="join", at_ms=reqs[2 * n // 3].at_ms, peers=wave))
        reqs.insert(n // 3, Request(op="leave", at_ms=reqs[n // 3].at_ms, peers=wave))
    return reqs, wave


def lossy(net):
    """An injector with 15 % of the peers crashed and 5 % message loss."""
    plan = FaultPlan(seed=7).crash_fraction(at_ms=0.0, fraction=0.15)
    injector = FaultInjector(plan.loss_burst(at_ms=0.0, rate=0.05, duration_ms=1e9), net.n_peers)
    injector.advance_to(0.0)
    return injector


def serve(net, policy, reqs, *, injector=None, config=None, store_recorder=None):
    """Serve ``reqs`` over ``net`` on a fresh, attached, half-seeded store
    (none when ``policy`` is None), traced by ``store_recorder`` when
    given; returns the result and the store."""
    if policy is None:
        return DHTService(net, config=config).run(list(reqs)), None
    store = ReplicatedStore(net, policy, injector=injector)
    for name in NAMES[::2]:
        store.seed_key(name, "v0")
    if store_recorder is not None:
        store.enable_tracing(store_recorder)
    net.attach_store(store)
    try:
        return DHTService(net, config=config, store=store).run(list(reqs)), store
    finally:
        net.detach_store(store)


def serve_digest(net, policy, reqs, *, injector=None, config=None, traced=False):
    """SHA-256 over everything a run leaves behind but ``serve.engine_lanes``
    (and, ``traced``, the store recorder's registry)."""
    recorder = SpanRecorder(MetricsRegistry()) if traced else None
    result, store = serve(
        net, policy, reqs, injector=injector, config=config, store_recorder=recorder
    )
    snapshot = result.registry.snapshot()
    snapshot["counters"].pop("serve.engine_lanes")
    state = [result.completions, sorted(result.counts.items()), result.makespan_ms, snapshot]
    if store is not None:
        state += [
            sorted((peer, sorted(disk.items())) for peer, disk in store._stored.items()),
            sorted(store._hints.items()),
            store.stats.as_dict(),
            store.loss_audit(),
        ]
    if recorder is not None:
        state.append(recorder.registry.snapshot())
    if injector is not None:
        state.append(float(injector.rng.random()))
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


SCENES = ("steady", "churn", "inside")

#: Recorded at the parent commit (PR 23): stack → policy → one digest per scene.
PARENT_DIGESTS = {
    "chord": {
        "quorum": ["9653422b1eac04d4", "e485aeb6ecb5817e", "c30d0bc7e648ab14"],
        "chain": ["01e96e26853eb6b6", "a472a23cfc8265fa", "d3d39684a072a24d"],
        "storeless": ["0f6057990ef44806", "28cb5875e6544e44", "b8f66d4eaead4d16"],
    },
    "hieras": {
        "quorum": ["9bbdd131a72afa0e", "87f42ec55b1d2cbc", "ff350e73112a5480"],
        "chain": ["5b9e448f6f0e392a", "8d7c923da6bdf13f", "b9ac7874a66c90bf"],
        "storeless": ["5c5439fc4734761a", "70bb94c5e93c3f85", "751a7458518637a4"],
    },
}
#: Same commit, the churn scene under :func:`lossy` (31 aborted chain
#: writes / 37 failed quorum contacts, hints queued and replayed by the
#: rejoin): (stack, policy) → digest, the injector's next draw included.
PARENT_LOSSY_DIGESTS = {
    ("chord", "chain"): "d5c025c89a19c0b4",
    ("hieras", "quorum"): "65c77a6be7823fa2",
}
#: Configurations beside the defaults: label → (policy, scene, config,
#: whether a span recorder traces the store's ``replication.*`` counters).
CONFIGS = {
    # Rejected, deadline-shed and failed completions all reach the fold.
    "shedding": ("quorum", "inside", ServiceConfig(workers=1, queue_limit=12, deadline_ms=30.0), False),
    "store_recorder": ("chain", "churn", None, True),
    # One worker, so the queue builds and max_batch=1 splits what would coalesce.
    "max_batch_1": ("quorum", "churn", ServiceConfig(workers=1, max_batch=1), False),
}
#: Recorded before the serving epoch went columnar: label → stack → digest.
PARENT_CONFIG_DIGESTS = {
    "shedding": {"chord": "c5e3ed09364ff9dc", "hieras": "28ad7089bbff70f4"},
    "store_recorder": {"chord": "73fc9b24fe2d3735", "hieras": "1f728f52a106b55e"},
    "max_batch_1": {"chord": "5f9aa13b96246a26", "hieras": "658188a1c14a0de8"},
}


def config_digest(net, label):
    policy, scene, config, traced = CONFIGS[label]
    reqs, _ = mixed_stream(net, 240, scene=scene)
    return serve_digest(net, POLICIES[policy], reqs, config=config, traced=traced)


class TestPinnedServing:
    """Completions, registry, disks, hints, stats and audit equal the
    parent's to the bit, with and without an injector."""

    @pytest.mark.parametrize("policy", list(POLICIES))
    @pytest.mark.parametrize("stack", list(PARENT_DIGESTS))
    def test_digest_recorded_at_the_parent_commit(self, bundle, stack, policy):
        net = getattr(bundle, stack)
        got = [serve_digest(net, POLICIES[policy], mixed_stream(net, 240, scene=s)[0]) for s in SCENES]
        assert got == PARENT_DIGESTS[stack][policy]

    @pytest.mark.parametrize("stack, policy", list(PARENT_LOSSY_DIGESTS))
    def test_digest_under_an_injector(self, bundle, stack, policy):
        net = getattr(bundle, stack)
        injector = lossy(net)
        reqs, _ = mixed_stream(net, 240, injector=injector)
        assert serve_digest(net, POLICIES[policy], reqs, injector=injector) == (
            PARENT_LOSSY_DIGESTS[stack, policy]
        )

    @pytest.mark.parametrize("policy", [QUORUM, CHAIN])
    def test_a_crashed_source_fails_at_dispatch(self, bundle, policy):
        net = bundle.hieras
        injector = lossy(net)
        crashed = [p for p in range(net.n_peers) if injector.state.is_dead(p)][:5]
        reqs, _ = mixed_stream(net, 240, injector=injector)
        # Every seventh get or put now comes from a peer the injector crashed.
        reqs = [
            replace(r, source=crashed[i % 5]) if r.op in ("get", "put") and i % 7 == 0 else r
            for i, r in enumerate(reqs)
        ]
        result, store = serve(net, policy, reqs, injector=injector)
        assert sum(result.counts.values()) == len(result.completions) == len(reqs)
        for c, r in zip(result.completions, reqs):
            if r.op in ("get", "put") and injector.state.is_dead(r.source):
                assert (c.outcome, c.route_ms, c.owner) == ("failed", 0.0, -1)
        assert result.counts["failed"] >= sum(r.source in crashed for r in reqs)
        assert store.stats.puts == sum(
            r.op == "put" and not injector.state.is_dead(r.source) for r in reqs
        )

    @pytest.mark.parametrize("label", list(CONFIGS))
    @pytest.mark.parametrize("stack", ["chord", "hieras"])
    def test_digest_under_another_config(self, bundle, stack, label):
        assert config_digest(getattr(bundle, stack), label) == PARENT_CONFIG_DIGESTS[label][stack]


class Spies:
    """Records the engine calls, scalar walks, name hashes, liveness
    checks and the store's replica placements of a run."""

    def __init__(self, monkeypatch):
        self.engine_lanes, self.walks, self.lossy_routes, self.hashed = [], [], [], []
        self.placed, self.placed_one, self.alive_checks = [], [], []
        engine, sha1_int = service_module.batch_route, ids_module.sha1_int
        walk, route_lossy = ChordNetwork._walk_plan, ChordNetwork.route_lossy
        groups_at, group_at, is_alive = store_module.groups_at, store_module.group_at, ChordNetwork.is_alive

        def batch_spy(net, sources, keys):
            self.engine_lanes.append(len(sources))
            return engine(net, sources, keys)

        def walk_spy(net, source, key, faults):
            self.walks.append((source, key))
            return walk(net, source, key, faults)

        def lossy_spy(net, source, key, *, injector):
            self.lossy_routes.append((source, key))
            return route_lossy(net, source, key, injector=injector)

        def sha1_spy(data, bits):
            self.hashed.append(data)
            return sha1_int(data, bits)

        def groups_spy(net, owners, policy):
            self.placed.append(len(owners))
            return groups_at(net, owners, policy)

        def group_spy(net, owner, policy):
            self.placed_one.append(owner)
            return group_at(net, owner, policy)

        def alive_spy(net, peer):
            self.alive_checks.append(peer)
            return is_alive(net, peer)

        monkeypatch.setattr(service_module, "batch_route", batch_spy)
        monkeypatch.setattr(ChordNetwork, "_walk_plan", walk_spy)
        monkeypatch.setattr(ChordNetwork, "route_lossy", lossy_spy)
        monkeypatch.setattr(ids_module, "sha1_int", sha1_spy)
        monkeypatch.setattr(store_module, "groups_at", groups_spy)
        monkeypatch.setattr(store_module, "group_at", group_spy)
        monkeypatch.setattr(ChordNetwork, "is_alive", alive_spy)


class TestCallCounts:
    """What a run calls, not how long it takes (the PR 18 kernel-call spy)."""

    @pytest.mark.parametrize("policy", [QUORUM, CHAIN])
    @pytest.mark.parametrize("stack", ["chord", "hieras"])
    def test_a_perfect_store_never_routes_or_rehashes(self, bundle, stack, policy, monkeypatch):
        net = getattr(bundle, stack)
        reqs, _ = mixed_stream(net, 240)
        spies = Spies(monkeypatch)
        result, store = serve(net, policy, reqs)
        assert len(spies.engine_lanes) == 3  # before the leave, away, after the rejoin
        assert sum(spies.engine_lanes) == sum(c.op in ("get", "put") for c in result.completions)
        assert spies.walks == [] and spies.lossy_routes == []
        # Once per distinct name in the run, beside serve()'s six seed_key
        # calls (a HIERAS wave hashes its ring names too).
        assert sorted(h for h in spies.hashed if h in NAMES) == sorted([*NAMES[::2], *NAMES])
        assert store.stats.puts == store.stats.put_successes == 60
        # One placement call per epoch places all of its puts; no lane asks alone.
        assert len(spies.placed) == 3 and sum(spies.placed) == 60 and spies.placed_one == []
        assert spies.alive_checks == []

    @pytest.mark.parametrize("policy", [QUORUM, CHAIN])
    def test_an_injector_keeps_every_put_a_lossy_route_in_dispatch_order(
        self, bundle, policy, monkeypatch
    ):
        net = bundle.hieras
        injector = lossy(net)
        reqs, _ = mixed_stream(net, 240, injector=injector)
        spies = Spies(monkeypatch)
        result, store = serve(net, policy, reqs, injector=injector, config=ServiceConfig(workers=1))
        gets = sum(c.op == "get" for c in result.completions)
        assert len(spies.engine_lanes) == 3 and sum(spies.engine_lanes) == gets
        # One worker: dispatch instants are distinct, so they order the puts.
        puts = sorted((c for c in result.completions if c.op == "put"), key=lambda c: c.dispatch_ms)
        assert spies.lossy_routes == [
            (reqs[c.seq].source, int(net.space.hash_key(reqs[c.seq].name))) for c in puts
        ]
        assert len(spies.walks) == len(puts) == store.stats.puts == 60
        assert spies.placed == [] and spies.alive_checks == []


class TestWriteAt:
    """``put`` is hash → route → ``write_at``."""

    @pytest.mark.parametrize("policy", [QUORUM, CHAIN])
    @settings(max_examples=25, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 299), st.text(min_size=1, max_size=6)), min_size=1, max_size=8
        )
    )
    def test_put_equals_write_at_the_routed_owner(self, bundle, policy, writes):
        for net in (bundle.chord, bundle.hieras):
            routed, direct = ReplicatedStore(net, policy), ReplicatedStore(net, policy)
            for i, (source, name) in enumerate(writes):
                key = int(net.space.hash_key(name))
                put = routed.put(source, name, i)
                route = net.route(source, key)
                at = direct.write_at(route.owner, key, i)
                assert (put.key, put.version, put.success, put.acks, put.contacts) == (
                    at.key, at.version, at.success, at.acks, at.contacts,
                )
                assert put.route == route and at.route is None
            assert routed._stored == direct._stored
            assert routed._latest == direct._latest and routed._catalog == direct._catalog
            assert routed.stats == direct.stats

    def test_read_at_takes_the_key_id(self, bundle):
        net = bundle.chord
        store = ReplicatedStore(net, QUORUM)
        key = int(net.space.hash_key("alpha"))
        put = store.put(3, "alpha", "v1")
        assert store.read_at(put.route.owner, key) == "v1"
        assert store.read_at(put.route.owner, key + 1) is None


class TestStoreOnAnotherOverlay:
    def test_rejected_at_construction(self, bundle):
        other = build_bundle(SimConfig(model="ts", n_peers=200, n_landmarks=4, depth=2, seed=5))
        store = ReplicatedStore(other.hieras, QUORUM)
        with pytest.raises(
            ValueError,
            match=r"store replicates over the hieras network of 200 peers, "
            r"not the chord network of 300 peers this service serves",
        ):
            DHTService(bundle.chord, store=store)
        # Same ids, same peers, another object: still two overlays.
        with pytest.raises(ValueError, match="hieras network of 300 peers, not the chord"):
            DHTService(bundle.chord, store=ReplicatedStore(bundle.hieras, QUORUM))

    def test_attached_stores_are_unaffected(self, bundle):
        result, store = serve(bundle.hieras, QUORUM, mixed_stream(bundle.hieras, 40)[0])
        assert store.network is bundle.hieras and result.served == 40 + 2


def recorder_state(net, reqs):
    """Serve ``reqs`` with a span recorder on the network; returns its
    registry's order-free part, the ``latency_ms`` total and the spans."""
    sink = MemorySink()
    recorder = SpanRecorder(MetricsRegistry(), sinks=[sink])
    net.enable_tracing(recorder)
    try:
        result, _ = serve(net, QUORUM, reqs, config=ServiceConfig(workers=1))
    finally:
        net.disable_tracing()
    snapshot = recorder.registry.snapshot()
    total = snapshot["histograms"][f"{net.span_label}.latency_ms"].pop("total")
    return snapshot, total, sink.spans, result


#: Recorded at the parent commit (PR 23): stack → (sha256 of the network
#: recorder's snapshot without the ``latency_ms`` total, that total).
PARENT_RECORDER = {"chord": ("f7bf24b4aa2d8128", 215510.0), "hieras": ("2cc70f6e8a63886c", 123575.0)}


class TestNetworkRecorder:
    """One ``record_batch`` per epoch covers gets and puts, in dispatch order."""

    @pytest.mark.parametrize("stack", list(PARENT_RECORDER))
    def test_registry_equals_the_parents(self, bundle, stack):
        net = getattr(bundle, stack)
        reqs, _ = mixed_stream(net, 240)
        snapshot, total, spans, result = recorder_state(net, reqs)
        digest, parent_total = PARENT_RECORDER[stack]
        assert hashlib.sha256(repr(snapshot).encode()).hexdigest()[:16] == digest
        # Puts used to be added after their epoch's gets: the float add
        # order is the only thing that may differ.
        assert math.isclose(total, parent_total, rel_tol=1e-12)
        routed = [c for c in result.completions if c.op in ("get", "put")]
        assert snapshot["counters"][f"{stack}.lookups"] == len(routed) == len(spans)
        assert snapshot["counters"][f"{stack}.total_hops"] == sum(s.n_hops for s in spans)

    def test_spans_are_in_dispatch_order(self, bundle):
        net = bundle.hieras
        reqs, _ = mixed_stream(net, 240)
        _, _, spans, result = recorder_state(net, reqs)
        # One worker: (dispatch instant, seq) is the dispatch order.
        routed = sorted(
            (c for c in result.completions if c.op in ("get", "put")),
            key=lambda c: (c.dispatch_ms, c.seq),
        )
        assert [(s.source, s.owner) for s in spans] == [
            (reqs[c.seq].source, c.owner) for c in routed
        ]


if __name__ == "__main__":  # PYTHONPATH=src:. python tests/test_serve_epoch.py prints the pins
    nets = build_bundle(SimConfig(model="ts", n_peers=300, n_landmarks=4, depth=2, seed=42))
    for stack in PARENT_DIGESTS:
        net = getattr(nets, stack)
        for label, policy in POLICIES.items():
            cells = [serve_digest(net, policy, mixed_stream(net, 240, scene=s)[0]) for s in SCENES]
            print(f"{stack} {label}: {cells!r}")
    for stack, label in PARENT_LOSSY_DIGESTS:
        net = getattr(nets, stack)
        injector = lossy(net)
        reqs, _ = mixed_stream(net, 240, injector=injector)
        digest = serve_digest(net, POLICIES[label], reqs, injector=injector)
        print(f"lossy {stack} {label}: {digest!r}")
    for label in CONFIGS:
        cells = {stack: config_digest(getattr(nets, stack), label) for stack in ("chord", "hieras")}
        print(f"{label}: {cells!r}")
    for stack in PARENT_RECORDER:
        net = getattr(nets, stack)
        snapshot, total, _, _ = recorder_state(net, mixed_stream(net, 240)[0])
        print(f"recorder {stack}: {hashlib.sha256(repr(snapshot).encode()).hexdigest()[:16]!r}, {total!r}")
