"""The contract of the public record classes: fields, construction,
immutability, equality, hashing, repr and validation messages."""

import copy
import itertools
import pickle

import numpy as np
import pytest

from lricnet import (
    Absolute,
    AttributeShare,
    CascadeTrace,
    CentralityTable,
    CriticalGroup,
    ExposureNetwork,
    GradeSchema,
    InfluenceMatrix,
    OutShareQuota,
    Ranking,
    RhoPath,
    SimulationPlan,
    ingest_edges,
)

TABLE_FIELDS = (
    "win", "wout", "wdiff", "wdeg", "clos_in", "clos_out", "betw", "eig", "pagerank",
)

# per class: its field names in order, and the values of one instance
FIELDS = {
    ExposureNetwork: (
        ("nodes", "edges", "attributes"),
        (("a", "b"), {("a", "b"): 2.0}, {"gdp": {"a": 1.0}}),
    ),
    OutShareQuota: (("fraction",), (0.25,)),
    AttributeShare: (("attribute", "fraction"), ("gdp", 0.1)),
    Absolute: (("quotas",), ({"a": 3.0},)),
    CriticalGroup: (
        ("lender", "members", "total", "pivotal"),
        ("L", frozenset({"a", "b"}), 3.0, frozenset({"a"})),
    ),
    CentralityTable: (TABLE_FIELDS, tuple({"a": float(k)} for k in range(9))),
    InfluenceMatrix: (
        ("nodes", "values", "variant"),
        (("a", "b"), np.array([[0.0, 0.5], [0.0, 0.0]]), "paths"),
    ),
    GradeSchema: (("bounds", "upper_inclusive", "labels"), ((0.5, 1.0), False, None)),
    RhoPath: (("nodes", "influences"), (("a", "b", "c"), (0.5, 0.25))),
    Ranking: (("ranks", "order", "scores"), ({"a": 1, "b": 2}, ("a", "b"), {"a": 2.0, "b": 1.0})),
    CascadeTrace: (
        ("initial", "stages", "stage_limit"),
        (frozenset({"a"}), (frozenset({"b"}),), 2),
    ),
    SimulationPlan: (
        ("mode", "runs", "k0_max", "seed", "probabilities"),
        ("exhaustive", 10, 2, 3, None),
    ),
}

HASHABLE = {
    OutShareQuota, AttributeShare, CriticalGroup, GradeSchema, RhoPath, CascadeTrace,
    SimulationPlan,
}


def _sample(cls):
    _, values = FIELDS[cls]
    return cls(*values)


def test_the_contract_covers_the_twelve_record_classes():
    assert len(FIELDS) == 12


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_give_the_fields_in_order(cls):
    names, values = FIELDS[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for record in (by_position, by_keyword):
        for name, value in zip(names, values):
            assert getattr(record, name) is value or getattr(record, name) == value
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(by_position) == repr(by_keyword) == f"{cls.__name__}({shown})"


def test_defaults():
    net = ExposureNetwork(nodes=("a",), edges={})
    assert net.attributes == {}
    assert ExposureNetwork(("a",), {}).attributes is not net.attributes
    schema = GradeSchema((0.5, 1.0))
    assert schema.upper_inclusive is True
    assert schema.labels is None
    trace = CascadeTrace(frozenset({"a"}), ())
    assert trace.stage_limit is None
    plan = SimulationPlan(seed=1)
    assert (plan.mode, plan.runs, plan.k0_max, plan.seed, plan.probabilities) == (
        "random", 5000, 5, 1, None,
    )


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_records_refuse_assignment_and_deletion(cls):
    record = _sample(cls)
    names, values = FIELDS[cls]
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value or getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_equality_by_field_values(cls):
    record = _sample(cls)
    assert record == record
    if cls is not InfluenceMatrix:  # arrays do not compare to one truth value
        assert record == _sample(cls)
        assert not record != _sample(cls)
    _, values = FIELDS[cls]
    assert record != tuple(values)
    assert record != list(values)
    assert record != object()


def test_instances_of_different_classes_never_compare_equal():
    samples = [_sample(cls) for cls in FIELDS]
    # same field values under another name
    samples += [CascadeTrace(frozenset(), (), None), SimulationPlan(seed=0)]
    for a, b in itertools.permutations(samples, 2):
        if type(a) is not type(b):
            assert a != b and not a == b, (a, b)


def test_fields_that_differ_make_records_unequal():
    assert OutShareQuota(0.25) != OutShareQuota(0.5)
    assert AttributeShare("gdp", 0.1) != AttributeShare("debt", 0.1)
    assert Absolute({"a": 1.0}) != Absolute({"a": 2.0})
    assert GradeSchema((0.5, 1.0)) != GradeSchema((0.5, 1.0), upper_inclusive=False)
    assert RhoPath(("a", "b"), (0.5,)) != RhoPath(("a", "b"), (0.25,))
    assert CascadeTrace(frozenset({"a"}), ()) != CascadeTrace(frozenset({"a"}), (), 1)
    assert SimulationPlan(seed=1) != SimulationPlan(seed=2)


def test_network_equality_ignores_the_derived_views():
    one = ingest_edges([("a", "b", 0.1), ("c", "b", 0.2), ("a", "c", 0.3)])
    other = ExposureNetwork(one.nodes, dict(reversed(one.edges.items())), {})
    assert one == other
    assert ExposureNetwork(one.nodes, one.edges, {"gdp": {}}) != one
    assert "strengths" not in repr(one) and "index" not in repr(one)
    with pytest.raises(AttributeError):
        one.out_strengths = {}
    with pytest.raises(AttributeError):
        one.index = {}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_hashing_where_every_field_is_hashable(cls):
    record = _sample(cls)
    if cls in HASHABLE:
        assert hash(record) == hash(_sample(cls))
        assert len({record, _sample(cls)}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_a_plan_with_probabilities_is_unhashable():
    with pytest.raises(TypeError):
        hash(SimulationPlan(seed=1, probabilities={"a": 0.5}))


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_copies_and_pickles_keep_the_fields(cls):
    record = _sample(cls)
    names, _ = FIELDS[cls]
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls
        # field by field, not by repr: a copied frozenset may iterate in
        # another order
        for name in names:
            kept, value = getattr(clone, name), getattr(record, name)
            assert type(kept) is type(value)
            if isinstance(value, np.ndarray):
                assert kept.dtype == value.dtype and np.array_equal(kept, value)
            else:
                assert kept == value
    if cls is ExposureNetwork:
        assert pickle.loads(pickle.dumps(record)).out_strengths == {"a": 2.0, "b": 0}


def test_derived_members_of_the_records():
    net = _sample(ExposureNetwork)
    assert net.index == {"a": 0, "b": 1}
    assert net.out_strengths == {"a": 2.0, "b": 0}
    assert net.in_strengths == {"a": 0, "b": 2.0}
    assert net.borrowers_of("a") == ("b",) and net.borrowers_of("z") == ()
    assert net.weight("a", "b") == 2.0 and net.weight("b", "a") == 0.0
    assert net.attribute("gdp", "a") == 1.0 and net.attribute("gdp", "b") is None
    matrix = _sample(InfluenceMatrix)
    assert matrix.index("b") == 1 and matrix.entry("a", "b") == 0.5
    assert _sample(RhoPath).length == 2
    schema = _sample(GradeSchema)
    assert schema.positive_grades == 3
    assert [schema.grade(c) for c in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0)] == [0, 1, 2, 2, 3, 3]
    trace = CascadeTrace(frozenset({"a"}), (frozenset({"b"}), frozenset({"c"})))
    assert trace.defaulted == frozenset({"a", "b", "c"})


def test_influence_matrix_values_are_read_only():
    matrix = _sample(InfluenceMatrix)
    with pytest.raises(ValueError, match="read-only"):
        matrix.values[0, 1] = 1.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExposureNetwork(("a",), {("a", "a"): 1.0}), "self-loop on node 'a'"),
        (
            lambda: ExposureNetwork(("a", "b"), {("a", "b"): float("nan")}),
            "non-finite weight on edge 'a'->'b': nan",
        ),
        (
            lambda: ExposureNetwork(("a", "b"), {("a", "b"): 0.0}),
            "non-positive weight on edge 'a'->'b': 0.0",
        ),
        (
            lambda: ExposureNetwork(("a",), {("a", "b"): 1.0}),
            "edge 'a'->'b' references unknown node",
        ),
        (lambda: OutShareQuota(0), "fraction must be in (0, 1], got 0"),
        (lambda: OutShareQuota(1.5), "fraction must be in (0, 1], got 1.5"),
        (lambda: AttributeShare("gdp", -0.1), "fraction must be in (0, 1], got -0.1"),
        (
            lambda: InfluenceMatrix(("a", "b"), np.zeros((2, 3)), "paths"),
            "matrix shape (2, 3) does not match 2 nodes",
        ),
        (lambda: GradeSchema(bounds=()), "schema needs at least one bound"),
        (
            lambda: GradeSchema((0.5, 0.25, 1.0)),
            "bounds must be strictly increasing: (0.5, 0.25, 1.0)",
        ),
        (lambda: GradeSchema((0.25, 0.5)), "last bound must be 1.0, got 0.5"),
        (lambda: GradeSchema((0.0, 1.0)), "bounds must be positive: (0.0, 1.0)"),
        # NaN fails every comparison, so no order or sign check catches it
        (lambda: GradeSchema((float("nan"), 1.0)), "bounds must not be NaN: (nan, 1.0)"),
        (
            lambda: GradeSchema((0.25, float("nan"), 1.0)),
            "bounds must not be NaN: (0.25, nan, 1.0)",
        ),
        (lambda: GradeSchema((0.5, 1.0), labels=("x",)), "1 labels for 2 grades"),
        (
            lambda: GradeSchema((0.5, 1.0), False, ("x", "y")),
            "2 labels for 3 grades",
        ),
        (lambda: RhoPath(("a",), ()), "need n+1 nodes for n steps, n >= 1"),
        (lambda: RhoPath(("a", "b"), (0.5, 0.5)), "need n+1 nodes for n steps, n >= 1"),
        (
            lambda: RhoPath(("a", "b", "a"), (0.5, 0.5)),
            "path revisits a node: ('a', 'b', 'a')",
        ),
        (lambda: RhoPath(("a", "b"), (0.0,)), "step influences must be positive: (0.0,)"),
        (
            lambda: SimulationPlan(mode="grid", seed=1),
            "mode must be 'exhaustive' or 'random', got 'grid'",
        ),
        (lambda: SimulationPlan(k0_max=0, seed=1), "k0_max must be at least 1, got 0"),
        (lambda: SimulationPlan(runs=0, seed=1), "runs must be positive, got 0"),
        (lambda: SimulationPlan(), "random mode requires a seed"),
        (
            lambda: SimulationPlan(seed=1, probabilities={"a": 1.5}),
            "probability for 'a' out of [0, 1]: 1.5",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_exhaustive_plans_ignore_runs_and_seed():
    plan = SimulationPlan(mode="exhaustive", runs=0)
    assert plan.seed is None and plan.runs == 0
