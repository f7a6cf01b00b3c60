"""Seeded inputs: venues, query sets and request streams.

The venues are fixed (the paper's Table II default mall, the running
example and a small two-floor mall); ``--seed`` chooses the queries and
requests.  The program only ever sees what this module generates: library
queries, codec payload files and request bodies.
"""

from __future__ import annotations

import json
import random
from typing import Iterator, List, Sequence, Tuple

from repro.bench.experiments import ExperimentScale, default_grid
from repro.core.itgraph import build_itgraph
from repro.core.query import ITSPQuery
from repro.datasets.example_floorplan import build_example_schedule, build_example_space
from repro.geometry.point import IndoorPoint
from repro.indoor.entities import PartitionCategory
from repro.synthetic.floorplan import MallFloorConfig
from repro.synthetic.multifloor import MultiFloorConfig, generate_mall_venue
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances
from repro.synthetic.schedules import ScheduleConfig, generate_schedule

METHODS = ("synchronous", "asynchronous")  # ITG/S and ITG/A

PUBLIC_CATEGORIES = (
    PartitionCategory.SHOP,
    PartitionCategory.ANCHOR_STORE,
    PartitionCategory.FOOD_COURT,
    PartitionCategory.HALLWAY,
)

# paper-mall query set: PAPER_PAIRS seeded δs2t pairs, each asked at one of
# the fig6 query times from OPEN_FROM_HOUR to OPEN_TO_HOUR in turn (so every
# time gets the same number of pairs).  With 175 distinct pairs the p90 of
# the set's search work moves a few per cent from seed to seed, and a set of
# 350 queries is visited 15 to 20 times in a 30 s run, often enough that
# every query has a visit in one of the host's fast spells (each latency is
# the best of its visits).  The overnight times are left
# out because those queries answer "no route" in ~20 µs, which makes the
# latency distribution bimodal with its median on the cliff between the
# modes.
PAPER_PAIRS = 175
OPEN_FROM_HOUR, OPEN_TO_HOUR = 8, 20

# serve-live stream: the venue clock starts at LIVE_START_MINUTE, advances one
# minute every REQUESTS_PER_MINUTE requests and wraps after LIVE_SPAN_MINUTES;
# sources are Zipf(ZIPF_EXPONENT)-skewed over ENTRANCES hallway points and
# targets uniform over TARGET_POOL points.  The point pools belong to the
# venue (fixed); the seed draws the request sequence.  Sources, targets and
# methods are dealt from decks reshuffled on every pass (the source deck
# holds ENTRANCE_DECK cards in Zipf proportions), so every seed asks the
# same mix and only the order differs: a seed that drew more of the dear
# requests would otherwise move the serving latencies by a tenth.  These
# values repeat about a quarter of the cache keys (reported as
# workload.key_repeat_share).
LIVE_START_MINUTE = 10 * 60
REQUESTS_PER_MINUTE = 9
LIVE_SPAN_MINUTES = 120
ENTRANCES = 12
ZIPF_EXPONENT = 1.0
ENTRANCE_DECK = 120
TARGET_POOL = 512
TRIP_POOL = 64


def paper_venue():
    """``(space, schedule, grid)`` of the paper's Table II default setting."""
    grid = default_grid(ExperimentScale.PAPER)
    venue = generate_mall_venue(grid.venue_config, seed=grid.venue_seed)
    schedule, _ = generate_schedule(
        venue.space,
        ScheduleConfig(checkpoint_count=grid.default_checkpoints, seed=grid.schedule_seed),
    )
    return venue.space, schedule, grid


def example_venue():
    """``(space, schedule)`` of the Figure 1 running example."""
    return build_example_space(), build_example_schedule()


def small_mall_venue():
    """``(space, schedule)`` of a small two-floor mall (the same shape as the
    service's built-in ``mall`` venue)."""
    config = MultiFloorConfig(
        floors=2,
        staircases_per_floor_pair=2,
        floor_config=MallFloorConfig(
            side=300.0,
            corridors=2,
            corridor_cells=3,
            shop_depth=25.0,
            shops_per_row=6,
            double_door_fraction=0.4,
            private_shop_fraction=0.1,
        ),
    )
    venue = generate_mall_venue(config, seed=5)
    schedule, _ = generate_schedule(venue.space, ScheduleConfig(checkpoint_count=8, seed=3))
    return venue.space, schedule


def build_graph(space, schedule):
    return build_itgraph(space, schedule, validate=False)


def paper_query_set(itgraph, grid, seed: int) -> List[Tuple[ITSPQuery, str]]:
    """``(query, method)`` pairs of the paper-mall workload (see the module
    constants): every pair under each method, method-major and grouped by
    query time."""
    generated = generate_query_instances(
        itgraph,
        QueryWorkloadConfig(s2t_distance=grid.default_s2t, pairs=PAPER_PAIRS, seed=seed),
    )
    times = [
        query_time
        for query_time in grid.query_times
        if OPEN_FROM_HOUR <= int(query_time.split(":")[0]) <= OPEN_TO_HOUR
    ]
    return [
        (ITSPQuery(item.query.source, item.query.target, query_time), method)
        for method in METHODS
        for turn, query_time in enumerate(times)
        for item in generated[turn :: len(times)]
    ]


def sample_points(itgraph, rng: random.Random, count: int, categories=PUBLIC_CATEGORIES, floor=None):
    """``count`` points strictly inside public partitions of ``categories``."""
    candidates = [
        partition
        for partition in itgraph.space.iter_partitions()
        if partition.category in categories
        and partition.polygon is not None
        and not (partition.is_private or partition.is_outdoor or partition.is_staircase)
        and (floor is None or partition.floor == floor)
    ]
    points: List[IndoorPoint] = []
    while len(points) < count:
        partition = rng.choice(candidates)
        box = partition.polygon.bounding_box
        point = IndoorPoint(
            rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y), partition.floor
        )
        located = itgraph.space.try_locate(point)
        if located is not None and located.partition_id == partition.partition_id:
            points.append(point)
    return points


def request_body(venue: str, source, target, minute_of_day: int, method: str) -> bytes:
    return json.dumps(
        {
            "venue": venue,
            "source": [source.x, source.y, source.floor],
            "target": [target.x, target.y, target.floor],
            "time": f"{minute_of_day // 60:02d}:{minute_of_day % 60:02d}",
            "method": method,
        }
    ).encode()


def live_stream(itgraph, venue: str, seed: int, count: int) -> List[bytes]:
    """The serve-live request stream (see the module constants)."""
    pools = random.Random("serve-live/pools")
    entrances = sample_points(itgraph, pools, ENTRANCES, (PartitionCategory.HALLWAY,), floor=0)
    targets = sample_points(itgraph, pools, TARGET_POOL)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(ENTRANCES)]
    copies = [round(ENTRANCE_DECK * weight / sum(weights)) for weight in weights]
    rng = random.Random(f"serve-live/{seed}")
    sources = dealt(rng, [point for point, copy in zip(entrances, copies) for _ in range(copy)])
    dealt_targets = dealt(rng, targets)
    methods = dealt(rng, METHODS)
    bodies = []
    for index in range(count):
        minute = LIVE_START_MINUTE + (index // REQUESTS_PER_MINUTE) % LIVE_SPAN_MINUTES
        bodies.append(request_body(venue, next(sources), next(dealt_targets), minute, next(methods)))
    return bodies


def dealt(rng: random.Random, deck: Sequence) -> Iterator:
    """Endless cards from ``deck``, reshuffled on every pass."""
    while True:
        cards = list(deck)
        rng.shuffle(cards)
        yield from cards


def trip_stream(venue_graphs: Sequence[Tuple[str, object]], seed: int, count: int) -> List[bytes]:
    """The serve-sharded stream: each request picks a venue, a minute of the
    day and two of that venue's TRIP_POOL points uniformly, so keys almost
    never repeat."""
    pools = random.Random("serve-sharded/pools")
    venues = [(name, sample_points(graph, pools, TRIP_POOL)) for name, graph in venue_graphs]
    rng = random.Random(f"serve-sharded/{seed}")
    bodies = []
    for _ in range(count):
        name, points = rng.choice(venues)
        bodies.append(
            request_body(
                name, rng.choice(points), rng.choice(points), rng.randrange(24 * 60), rng.choice(METHODS)
            )
        )
    return bodies


def parse_body(body: bytes) -> Tuple[str, ITSPQuery, str]:
    """``(venue, query, method)`` of a generated request body."""
    document = json.loads(body)
    source = IndoorPoint(*document["source"][:2], int(document["source"][2]))
    target = IndoorPoint(*document["target"][:2], int(document["target"][2]))
    return document["venue"], ITSPQuery(source, target, document["time"]), document["method"]
