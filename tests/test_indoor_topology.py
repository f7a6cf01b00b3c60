"""Tests for the six door/partition topology mappings."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import UnknownEntityError
from repro.indoor.topology import Topology


@pytest.fixture()
def topology():
    """Three partitions in a row: a -d1- b -d2- c, plus a one-way door d3 a->c."""
    topo = Topology()
    topo.add_directed_connection("a", "b", "d1")
    topo.add_directed_connection("b", "a", "d1")
    topo.add_directed_connection("b", "c", "d2")
    topo.add_directed_connection("c", "b", "d2")
    topo.add_directed_connection("a", "c", "d3")  # one-way
    return topo


def test_p2d(topology):
    assert topology.doors_of("a") == {"d1", "d3"}
    assert topology.doors_of("b") == {"d1", "d2"}
    assert topology.doors_of("c") == {"d2", "d3"}


def test_d2p(topology):
    assert topology.partitions_of("d1") == {"a", "b"}
    assert topology.partitions_of("d3") == {"a", "c"}


def test_enterable_and_leaveable_doors(topology):
    assert topology.enterable_doors("a") == {"d1"}          # d3 cannot enter a
    assert topology.leaveable_doors("a") == {"d1", "d3"}
    assert topology.enterable_doors("c") == {"d2", "d3"}
    assert topology.leaveable_doors("c") == {"d2"}


def test_enterable_and_leaveable_partitions(topology):
    assert topology.enterable_partitions("d3") == {"c"}
    assert topology.leaveable_partitions("d3") == {"a"}
    assert topology.enterable_partitions("d1") == {"a", "b"}


def test_unknown_entities_raise(topology):
    with pytest.raises(UnknownEntityError):
        topology.doors_of("zzz")
    with pytest.raises(UnknownEntityError):
        topology.partitions_of("dzzz")


def test_degree_and_counts(topology):
    assert topology.degree("b") == 2
    assert topology.edge_count() == 5
    assert topology.partition_ids == {"a", "b", "c"}
    assert topology.door_ids == {"d1", "d2", "d3"}


def test_registration_of_isolated_entities():
    topo = Topology()
    topo.register_partition("solo")
    topo.register_door("unused")
    assert topo.doors_of("solo") == frozenset()
    assert topo.partitions_of("unused") == frozenset()


def test_without_doors_reduction(topology):
    reduced = topology.without_doors({"d2"})
    # The removed door disappears from every mapping but partitions remain.
    assert not reduced.has_door("d2")
    assert reduced.has_partition("c")
    assert reduced.doors_of("b") == {"d1"}
    assert reduced.enterable_doors("c") == {"d3"}
    assert reduced.edge_count() == 3
    # The original topology is untouched.
    assert topology.has_door("d2")
    assert topology.edge_count() == 5


def test_copy_is_independent(topology):
    clone = topology.copy()
    clone.add_directed_connection("c", "d", "d4")
    assert not topology.has_partition("d")
    assert clone.has_partition("d")


def test_directed_edges_view(topology):
    assert ("a", "c", "d3") in topology.directed_edges
    assert ("c", "a", "d3") not in topology.directed_edges


#: Builds the two in-process venues of ``python -m repro.service`` (``--venue
#: example`` and ``--venue mall``) and prints, as JSON, the answer of both
#: engines (compiled and reference) to a fixed set of random point pairs.
ANSWERS_SCRIPT = """
import dataclasses, json, random
from repro.core.engine import ITSPQEngine
from repro.geometry.point import IndoorPoint, Point2D
from repro.service.__main__ import build_engine

answers = []
for spec in ("example", "mall"):
    compiled = build_engine(spec, "off")
    reference = ITSPQEngine(compiled.itgraph, compiled=False)
    partitions = [
        partition
        for partition in compiled.itgraph.space.iter_partitions()
        if partition.polygon is not None and not partition.is_outdoor
    ]
    rng = random.Random(11)

    def point():
        partition = rng.choice(partitions)
        box = partition.polygon.bounding_box
        while True:
            x, y = rng.uniform(box.min_x, box.max_x), rng.uniform(box.min_y, box.max_y)
            if partition.polygon.contains(Point2D(x, y)):
                return IndoorPoint(x, y, partition.floor)

    for index in range(100):
        source, target = point(), point()
        when = ("9:00", "12:30", "18:45", "23:10")[index % 4]
        for method in ("synchronous", "asynchronous"):
            for engine in (compiled, reference):
                result = engine.query(source, target, when, method=method)
                statistics = dataclasses.asdict(result.statistics)
                del statistics["runtime_seconds"]
                doors = list(result.path.door_sequence) if result.path is not None else []
                answers.append(
                    [spec, index, method, result.found, result.length if result.found else None,
                     doors, statistics]
                )
print(json.dumps(answers))
"""


def answers_under_hash_seed(seed: int) -> list:
    import repro

    source_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", ANSWERS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout)


def test_in_process_builds_answer_alike_under_any_hash_seed():
    """Every mapping iterates in insertion order, so two processes that build
    a venue from the same calls (replicas of ``--venue example`` under
    ``--shards 2``) answer every query with the same route, length and
    counters whatever their ``PYTHONHASHSEED``."""
    first, second = answers_under_hash_seed(0), answers_under_hash_seed(3)
    assert len(first) == len(second) == 800
    for left, right in zip(first, second):
        assert left == right
