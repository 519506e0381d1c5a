"""The four workloads: seeded feeds, deployments and their reference oracles.

Every workload is a :class:`Workload` whose :meth:`Workload.feed` makes
the seeded input batches, whose :meth:`Workload.open` sets up the
deployment under test with the default ``connect(...)`` settings for
that deployment, and whose :meth:`Workload.reference` sets up the
oracle the outputs are checked against. The program sees only the
generated rows: the seed never reaches ``repro``.

The SQL and the federated world are copied here from
``benchmarks/bench_shard.py``, ``bench_tenancy.py`` and
``bench_federated.py`` rather than imported, so an edit to a
micro-benchmark can never silently change this benchmark.

Sensor-style values are quantized to dyadic steps (temperatures in
quarter degrees, loads in 1/64ths). Sums of such values are exact in
binary floating point whatever the order, so a two-phase aggregate that
adds per-shard partials compares bit for bit with a single engine that
adds row by row.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from dataclasses import dataclass, field

from repro.api import SensorSource, StreamSource, connect
from repro.data import DataType, Schema
from repro.runtime import Simulator
from repro.sensor import Mote, MoteRole, Position, SensorNetwork, SensorRelation

READINGS = Schema.of(
    ("room", DataType.STRING),
    ("host", DataType.STRING),
    ("temp", DataType.FLOAT),
    ("load", DataType.FLOAT),
)
EVENTS = Schema.of(
    ("kind", DataType.STRING),
    ("host", DataType.STRING),
    ("load", DataType.FLOAT),
)

#: bench_shard's seven standing queries: two fused filter->project
#: chains, two keyed windowed aggregates, three keyed DISTINCTs.
STANDING7 = [
    """SELECT r.host, r.temp * 1.8 + 32.0 AS fahrenheit, r.load * 100.0 AS pct,
              COALESCE(r.load, 0.0) + r.temp / 10.0 AS score
       FROM Readings r
       WHERE r.temp > 15.0 AND r.temp < 90.0 AND r.room LIKE 'lab%'
             AND r.load >= 0.0 AND r.load <= 1.0""",
    """SELECT r.host, (r.temp - 20.0) * (r.temp - 20.0) AS dev
       FROM Readings r
       WHERE r.load > 0.25 AND r.temp < 70.0""",
    """SELECT r.host, COUNT(*) AS n, SUM(r.temp) AS total, MAX(r.load) AS peak
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]
       WHERE r.temp > 5.0 AND r.load >= 0.0
       GROUP BY r.host""",
    """SELECT r.host, MIN(r.temp) AS lo, AVG(r.load) AS mean
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]
       WHERE r.temp < 85.0
       GROUP BY r.host""",
    """SELECT DISTINCT r.host, r.room FROM Readings r WHERE r.load >= 0.5""",
    """SELECT DISTINCT r.room, r.host FROM Readings r WHERE r.temp > 40.0""",
    """SELECT DISTINCT r.host FROM Readings r WHERE r.temp > 25.0 AND r.load > 0.1""",
]

#: bench_shard's shuffled host-join: Readings partitioned by room and
#: Events by kind, so both sides hash-shuffle on host.
SHUFFLED_JOIN = """SELECT r.host, r.temp, e.load AS eload
       FROM Readings r [RANGE 10 SECONDS], Events e [RANGE 10 SECONDS]
       WHERE r.host = e.host AND e.load > 0.1 AND r.temp > 10.0"""

#: bench_shard's global aggregate, split into per-shard partials merged
#: across an exchange.
GLOBAL_AGG = """SELECT COUNT(*) AS n, AVG(r.load) AS mean, MIN(r.temp) AS lo
       FROM Readings r [RANGE 40 SECONDS SLIDE 40 SECONDS]"""

#: bench_tenancy's 20 statement templates.
TENANT_TEMPLATES = [
    "select r.host, r.temp from Readings r where r.temp > 10.0",
    "select r.host, r.temp from Readings r where r.temp > 25.0",
    "select r.host, r.temp from Readings r where r.temp > 40.0",
    "select r.host, r.temp from Readings r where r.temp > 55.0",
    "select r.room, r.host from Readings r where r.load < 0.25",
    "select r.room, r.host from Readings r where r.load < 0.75",
    "select r.host, r.temp * 1.8 + 32.0 as fahrenheit from Readings r "
    "where r.temp > 30.0",
    "select r.host, r.load * 100.0 as pct from Readings r where r.load >= 0.5",
    "select r.room, r.temp from Readings r where r.room like 'lab%'",
    "select r.host from Readings r where r.temp > 20.0 and r.load < 0.9",
    "select r.room, count(*) as n from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.room",
    "select r.room, avg(r.temp) as mean from Readings r "
    "[range 10 seconds slide 10 seconds] group by r.room",
    "select r.host, count(*) as n, sum(r.temp) as total from Readings r "
    "[range 20 seconds slide 20 seconds] group by r.host",
    "select r.host, min(r.temp) as lo, max(r.temp) as hi from Readings r "
    "[range 20 seconds slide 10 seconds] group by r.host",
    "select count(*) as n, avg(r.load) as mean from Readings r "
    "[range 10 seconds slide 10 seconds]",
    "select r.room, count(*) as n from Readings r "
    "[range 20 seconds slide 20 seconds] where r.temp > 15.0 group by r.room",
    "select distinct r.host, r.room from Readings r where r.temp > 35.0",
    "select distinct r.room from Readings r where r.load > 0.1",
    "select r.host, r.temp from Readings r [rows 25] where r.load > 0.3",
    "select r.room, avg(r.temp) as mean from Readings r "
    "[rows 50] group by r.room",
]

ROOMS = [f"lab{i}" for i in range(1, 5)] + [f"office{i}" for i in range(1, 5)]
KINDS = ["warn", "err", "info"]


@dataclass
class Batch:
    """One ingest batch: per-source rows, then one punctuation.

    ``parts`` holds ``(source, rows, stamps)`` in push order; ``rows``
    counts what the batch feeds the engine (for the federated workload
    that includes the sensor samples the simulated motes take).
    """

    parts: list[tuple[str, list[dict], list[float]]]
    watermark: float
    rows: int


@dataclass
class Traffic:
    """The traffic dimensions of one workload, stated in every result."""

    hosts: int
    zipf_s: float  # 0.0 = uniform host keys
    out_of_order: float  # share of rows swapped inside their batch
    windows: str
    #: Batch sizes and rates count Readings rows, or sample periods on
    #: the federated workload. A closed-loop batch spans exactly one
    #: period of the workload's periodic work (window slide, checkpoint
    #: interval), so every batch does the same kind of work and the
    #: per-batch median does not fall between batches that close a
    #: window and batches that do not.
    closed_batch: int  # per batch in the closed loop
    closed_rate: float  # per second the closed loop's size is set from
    open_batch: int  # per batch in the open loop
    open_rate: float  # offered per second in the open loop
    events_every: int = 0  # one Events row per this many readings


class ReadingFeed:
    """Seeded Readings (and optionally Events) batches.

    Stamps advance 0.1 s of event time per reading, so the declared
    source rate (10 rows per second) holds in event time whatever the
    wall-clock rate. The watermark closing a batch is its largest stamp;
    out-of-order rows are swapped with another row of the same batch, so
    they stay inside the unpunctuated interval.
    """

    STEP = 0.1

    def __init__(self, seed: int, traffic: Traffic, temp_quarters: tuple[int, int]):
        self._rng = random.Random(seed)
        self._traffic = traffic
        self._temps = temp_quarters
        self._hosts = [f"ws{k}" for k in range(traffic.hosts)]
        weights = [
            1.0 / (k + 1) ** traffic.zipf_s for k in range(traffic.hosts)
        ]
        self._cum = list(itertools.accumulate(weights))
        self._total = self._cum[-1]
        self._index = 0
        self._clock = 0.0

    def _host(self) -> str:
        rng = self._rng
        if not self._traffic.zipf_s:
            return self._hosts[rng.randrange(len(self._hosts))]
        return self._hosts[bisect.bisect(self._cum, rng.random() * self._total)]

    def batch(self, size: int) -> Batch:
        rng = self._rng
        lo, hi = self._temps
        rows: list[dict] = []
        stamps: list[float] = []
        events: list[dict] = []
        event_stamps: list[float] = []
        every = self._traffic.events_every
        for _ in range(size):
            self._index += 1
            self._clock = round(self._index * self.STEP, 6)
            rows.append(
                {
                    "room": ROOMS[rng.randrange(len(ROOMS))],
                    "host": self._host(),
                    "temp": rng.randrange(lo, hi) / 4.0,
                    "load": rng.randrange(65) / 64.0,
                }
            )
            stamps.append(self._clock)
            if every and self._index % every == 0:
                events.append(
                    {
                        "kind": KINDS[rng.randrange(len(KINDS))],
                        "host": self._host(),
                        "load": rng.randrange(65) / 64.0,
                    }
                )
                event_stamps.append(self._clock)
        share = self._traffic.out_of_order
        if share and size > 1:
            for a in range(size):
                if rng.random() < share:
                    b = rng.randrange(size)
                    stamps[a], stamps[b] = stamps[b], stamps[a]
        parts = [("Readings", rows, stamps)]
        if events:
            parts.append(("Events", events, event_stamps))
        return Batch(parts, self._clock, len(rows) + len(events))


class Ledger:
    """Attempted and failed operations, with the first errors kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, what: str, fn, *args) -> None:
        self.attempted += 1
        try:
            fn(*args)
        except Exception as exc:  # the benchmark must keep running and report it
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


@dataclass
class Deployment:
    """A set-up session with its standing queries.

    ``labels[i]`` names query ``i`` in failure reports; ``ref_index[i]``
    is the reference query whose output query ``i`` must reproduce.
    """

    session: object
    cursors: list
    labels: list[str]
    ref_index: list[int]
    admit_s: float = 0.0
    world: dict = field(default_factory=dict)
    admit_errors: list[str] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Admission calls made, failed ones included."""
        return len(self.cursors) + len(self.admit_errors)

    @property
    def sinks(self) -> list[list]:
        # cursor.results() copies the whole history on every call; the
        # per-segment check reads the sink's element list incrementally.
        return [cursor._handle.sink.elements for cursor in self.cursors]

    def step(self, batch: Batch, ledger: Ledger) -> None:
        session = self.session
        simulator = self.world.get("simulator")
        if simulator is not None:
            ledger.call("run_for", simulator.run_for, self.world["period"])
            batch.watermark = simulator.now
            parts = [(s, rows, simulator.now) for s, rows, _ in batch.parts]
        else:
            parts = batch.parts
        for source, rows, stamps in parts:
            ledger.call(f"push_many({source})", session.push_many, source, rows, stamps)
        ledger.call("punctuate", session.punctuate, batch.watermark)

    def close(self) -> None:
        self.session.close()


def _label(index: int, sql: str) -> str:
    text = " ".join(sql.split())
    return f"q{index}: {text[:90]}"


class Workload:
    """Base class; subclasses fill in the feed, the SQL and the set-up."""

    name = ""
    why = ""
    traffic: Traffic
    connect_kwargs: dict = {}
    reference_kwargs: dict = {"share_plans": False}
    #: Timed set-ups in each round of a run: enough that a round spends
    #: some 0.1 s setting up, so each round's sample spans more than a
    #: blip of the host.
    setups_per_round = 2

    def statements(self, seed: int) -> list[str]:
        raise NotImplementedError

    def reference_statements(self, seed: int) -> tuple[list[str], list[int]]:
        """Distinct statements the oracle runs, and for each workload
        query the index of its reference statement."""
        statements = self.statements(seed)
        return statements, list(range(len(statements)))

    def feed(self, seed: int):
        raise NotImplementedError

    def attach(self, session) -> None:
        session.attach(StreamSource("Readings", READINGS, rate=10.0, partition_by="host"))

    def floor_session(self):
        """The deployment's sources with no query admitted."""
        session = connect(**self.connect_kwargs)
        self.attach(session)
        return session

    def _admit(
        self, session, statements: list[str], ref_index: list[int], *,
        world: dict | None = None, engine: str | None = None,
    ) -> Deployment:
        """Admit ``statements`` on ``session``, timing the admissions."""
        deployment = Deployment(session, [], [], [], world=world or {})
        start = time.perf_counter()
        for i, sql in enumerate(statements):
            try:
                cursor = session.query(sql, engine=engine)
            except Exception as exc:  # a failed admission is counted, not fatal
                deployment.admit_errors.append(
                    f"admit {_label(i, sql)}: {type(exc).__name__}: {exc}"
                )
                continue
            deployment.cursors.append(cursor)
            deployment.labels.append(_label(i, sql))
            deployment.ref_index.append(ref_index[i])
        deployment.admit_s = time.perf_counter() - start
        return deployment

    def open(self, seed: int) -> Deployment:
        session = connect(**self.connect_kwargs)
        self.attach(session)
        return self._admit(
            session, self.statements(seed), self.reference_statements(seed)[1]
        )

    def reference(self, seed: int) -> Deployment:
        session = connect(**self.reference_kwargs)
        self.attach(session)
        statements, _ = self.reference_statements(seed)
        return self._admit(session, statements, list(range(len(statements))))


class Standing7(Workload):
    name = "standing7"
    setups_per_round = 6
    traffic = Traffic(
        hosts=64,
        zipf_s=0.0,
        out_of_order=0.0,
        windows="RANGE 40 s SLIDE 40 s aggregates; DISTINCT unbounded",
        closed_batch=400,
        closed_rate=34000.0,
        open_batch=50,
        open_rate=9000.0,
    )
    why = (
        "7 non-overlapping bench_shard queries on one default engine: "
        "coercion, rebasing shim, tee, operators; sharing tax shows; "
        "open loop 9000 rows/s in 50-row batches"
    )

    def statements(self, seed: int) -> list[str]:
        return list(STANDING7)

    def feed(self, seed: int) -> ReadingFeed:
        return ReadingFeed(seed, self.traffic, (40, 400))


class Tenants1k(Workload):
    name = "tenants1k"
    tenants = 1000
    traffic = Traffic(
        hosts=16,
        zipf_s=0.0,
        out_of_order=0.0,
        windows="RANGE 10-20 s aggregates, ROWS 25/50, DISTINCT unbounded",
        closed_batch=200,
        closed_rate=1700.0,
        open_batch=1,
        open_rate=125.0,
    )
    why = (
        "1000 standing queries drawn from bench_tenancy's 20 templates on one "
        "default engine: admission, plan cache, tee fan-out, sinks; "
        "open loop 125 rows/s, 1 row per batch"
    )

    def statements(self, seed: int) -> list[str]:
        # Tenants cycle through the templates as in bench_tenancy, so
        # every seed admits the same population (and set-up is comparable
        # across seeds); the seed drives the feed.
        return [
            TENANT_TEMPLATES[i % len(TENANT_TEMPLATES)] for i in range(self.tenants)
        ]

    def reference_statements(self, seed: int) -> tuple[list[str], list[int]]:
        # Identical SQL text over one feed has one correct output, so the
        # oracle runs each template once as a private pipeline and every
        # tenant is checked against its template's output.
        index = {sql: i for i, sql in enumerate(TENANT_TEMPLATES)}
        return list(TENANT_TEMPLATES), [index[sql] for sql in self.statements(seed)]

    def feed(self, seed: int) -> ReadingFeed:
        return ReadingFeed(seed, self.traffic, (0, 280))


class PoolExchange(Workload):
    name = "pool_exchange"
    setups_per_round = 3
    checkpoint_interval = 40.0
    traffic = Traffic(
        hosts=64,
        zipf_s=1.0,
        # In stamp order: with rows out of order inside a batch the
        # exchanged DISTINCT keeps the earliest-stamped duplicate (the
        # shuffle re-sorts deposits by timestamp) while the single engine
        # keeps the first to arrive, so the pool's output differs from
        # the reference (see README.md, "Known divergence").
        out_of_order=0.0,
        windows="RANGE 40 s SLIDE 40 s aggregates, RANGE 10 s join",
        closed_batch=400,
        closed_rate=9600.0,
        open_batch=5,
        open_rate=900.0,
        events_every=4,
    )
    connect_kwargs = {
        "shards": 2,
        "workers": "process",
        "checkpoint_interval": checkpoint_interval,
    }
    why = (
        "2 process workers with checkpoints: 7 keyed queries, shuffled "
        "host-join, global 2-phase aggregate over Zipf hosts, rows in "
        "stamp order; open loop 900 readings/s in 5-reading batches"
    )

    def statements(self, seed: int) -> list[str]:
        return [*STANDING7, SHUFFLED_JOIN, GLOBAL_AGG]

    def attach(self, session) -> None:
        session.attach(StreamSource("Readings", READINGS, rate=10.0, partition_by="room"))
        session.attach(StreamSource("Events", EVENTS, rate=2.5, partition_by="kind"))

    def feed(self, seed: int) -> ReadingFeed:
        return ReadingFeed(seed, self.traffic, (40, 400))


TEMPS = Schema.of(("room", DataType.STRING), ("temp", DataType.FLOAT))
LOAD = Schema.of(("room", DataType.STRING), ("load", DataType.FLOAT))


class LoadFeed:
    """Seeded GridLoad rows, four per sample period (one per room).

    Stamps advance one period per batch; :meth:`Deployment.step` pushes
    at the simulator clock instead, which runs the same period per batch.
    ``rows`` adds the sensor samples the motes take in that period.
    """

    def __init__(self, seed: int, samples_per_period: int, period: float):
        self._rng = random.Random(seed)
        self._samples = samples_per_period
        self._period = period
        self._clock = 0.0

    def batch(self, size: int) -> Batch:
        self._clock += self._period
        rows = [
            {"room": f"room{room}", "load": self._rng.randrange(65) / 64.0}
            for room in range(4)
        ]
        stamps = [self._clock] * len(rows)
        return Batch([("GridLoad", rows, stamps)], self._clock, len(rows) + self._samples)


class SmartcisFederated(Workload):
    name = "smartcis_federated"
    setups_per_round = 12
    arms = 4
    motes_per_arm = 6
    period = 5.0
    threshold = 24.0
    traffic = Traffic(
        hosts=24,
        zipf_s=0.0,
        out_of_order=0.0,
        windows="default 60 s join windows",
        closed_batch=1,
        closed_rate=340.0,
        open_batch=1,
        open_rate=150.0,
    )
    why = (
        "the paper's scenario: 24-mote multihop star joined to a PC stream "
        "through FederatedBackend; sensor, optimizer, simulation layers; "
        "open loop 150 sample periods/s"
    )
    query = (
        "select g.room, g.temp, l.load from GridTemps g, GridLoad l "
        f"where g.room = l.room and g.temp > {threshold}"
    )

    # One straight chain of motes per compass direction. With a 50 ft
    # radio the reliable disc is 30 ft: adjacent motes (28 ft) are
    # loss-free and the next-nearest (56 ft) are out of range, so every
    # tree edge delivers and the in-network and ship-everything runs see
    # identical data, while every sample pays one transmission per hop.
    _directions = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    _spacing = 28.0
    _radio_range = 50.0

    @property
    def motes(self) -> int:
        return self.arms * self.motes_per_arm

    def statements(self, seed: int) -> list[str]:
        return [self.query]

    def feed(self, seed: int) -> LoadFeed:
        return LoadFeed(seed, self.motes, self.period)

    def floor_session(self):
        session = connect()
        session.attach(StreamSource("GridLoad", LOAD, rate=1.0))
        return session

    def _world(self, seed: int):
        simulator = Simulator(seed)
        network = SensorNetwork(simulator)
        network.add_basestation(Position(0.0, 0.0), radio_range=self._radio_range)
        # Each seed deals the same set of base temperatures to the motes
        # in another order: which motes pass the filter changes, how many
        # do (and so the result volume) does not.
        bases = [15.0 + (k % 16) * 0.75 for k in range(self.motes)]
        random.Random(seed).shuffle(bases)
        mote_ids = []
        for arm, (dx, dy) in enumerate(self._directions[: self.arms]):
            for depth in range(1, self.motes_per_arm + 1):
                mote_id = arm * self.motes_per_arm + depth
                mote = Mote(
                    mote_id,
                    Position(dx * depth * self._spacing, dy * depth * self._spacing),
                    MoteRole.ROOM,
                    radio_range=self._radio_range,
                )
                base = bases[mote_id - 1]
                mote.attach_sensor(
                    "temp",
                    lambda base=base, sim=simulator: base + (sim.now * 1.3) % 7.0,
                )
                network.add_mote(mote)
                mote_ids.append(mote_id)
        network.rebuild_topology()
        relation = SensorRelation(
            "GridTemps",
            TEMPS,
            mote_ids,
            lambda mote: {
                "room": f"room{mote.mote_id % 4}",
                "temp": round(mote.sample("temp"), 2),
            },
            period=self.period,
        )
        return simulator, network, relation

    def _open_federated(self, seed: int, federated: bool) -> Deployment:
        simulator, network, relation = self._world(seed)
        session = connect(network=network, simulator=simulator)
        # The federated run deploys its own filtered fragment; the
        # ship-everything oracle needs the raw collection deployed.
        session.attach(SensorSource(relation, deploy=not federated))
        session.attach(StreamSource("GridLoad", LOAD, rate=1.0))
        world = {"simulator": simulator, "network": network, "period": self.period}
        return self._admit(
            session, [self.query], [0], world=world,
            engine=None if federated else "stream",
        )

    def open(self, seed: int) -> Deployment:
        return self._open_federated(seed, True)

    def reference(self, seed: int) -> Deployment:
        return self._open_federated(seed, False)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Standing7(), Tenants1k(), PoolExchange(), SmartcisFederated())
}
