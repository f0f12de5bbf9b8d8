"""The memoised state queries: P(1) per qubit, node count and depth.

The package memoises these on node ids between garbage-collection sweeps
(``dd.memo.*``).  The property test below checks every memoised answer
against memo-free reference walks while states are built, collapsed,
decayed, rescaled, dropped, swept and rebuilt on one package — the last
step is where a freed node's id can come back on a different node.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import gates
from repro.dd import DDPackage
from repro.dd.package import PROJ_ONE, PROJ_ZERO

DECAY = np.array([[0, 1], [0, 0]], dtype=complex)
SINGLE = {"h": gates.H, "x": gates.X, "t": gates.T, "sx": gates.SX}


# ----------------------------------------------------------------------
# Memo-free reference walks
# ----------------------------------------------------------------------


def reference_mass(node, qubit):
    """P(1) mass below ``node``, recomputed on every path (no sharing)."""
    if node.is_terminal:
        raise ValueError("qubit index beyond DD depth")
    if node.var == qubit:
        return node.edges[1].weight.magnitude_squared()
    result = 0.0
    for child in node.edges:
        if child.weight.is_zero():
            continue
        result += child.weight.magnitude_squared() * reference_mass(child.node, qubit)
    return result


def reference_p_one(edge, qubit):
    total = edge.weight.magnitude_squared()
    return reference_mass(edge.node, qubit) * edge.weight.magnitude_squared() / total


def reference_node_count(edge):
    seen = set()

    def walk(node):
        if node.is_terminal or node in seen:
            return
        seen.add(node)
        for child in node.edges:
            walk(child.node)

    walk(edge.node)
    return len(seen)


def reference_depth(edge):
    depth = 0
    node = edge.node
    while not node.is_terminal:
        depth = max(depth, node.var + 1)
        children = [child.node for child in node.edges if not child.node.is_terminal]
        if not children:
            break
        node = children[0]
    return depth


def assert_queries_match(package, edge, num_qubits):
    """Every memoised query equals its reference walk, bit for bit, twice
    (the second round is answered from the memo)."""
    for _ in range(2):
        for qubit in range(num_qubits):
            assert package.probability_of_one(edge, qubit) == reference_p_one(edge, qubit)
        assert package.node_count(edge) == reference_node_count(edge)
        assert package._depth(edge) == reference_depth(edge)


# ----------------------------------------------------------------------
# Random operation sequences
# ----------------------------------------------------------------------


def operations(num_qubits):
    qubit = st.integers(0, num_qubits - 1)
    gate = st.tuples(
        st.just("gate"), st.sampled_from(sorted(SINGLE)), qubit, st.integers(-1, num_qubits - 1)
    )
    collapse = st.tuples(st.just("collapse"), qubit, st.integers(0, 1))
    decay = st.tuples(st.just("decay"), qubit)
    scale = st.tuples(
        st.just("scale"),
        st.floats(0.25, 4.0, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    amplitude = st.sampled_from([0.0, 0.0, 1.0, -1.0, 1j, 0.5 - 0.5j])
    sweep = st.tuples(
        st.just("sweep"),
        st.lists(amplitude, min_size=2**num_qubits, max_size=2**num_qubits).filter(any),
    )
    return st.lists(st.one_of(gate, collapse, decay, scale, sweep), min_size=1, max_size=30)


def apply(package, state, op, num_qubits):
    """The state after ``op`` (None when ``op`` would give the zero vector)."""
    kind = op[0]
    if kind == "gate":
        _, name, target, control = op
        controls = {control: 1} if control not in (-1, target) else None
        gate = package.gate(SINGLE[name], target, controls, num_qubits)
        assert package.node_count(gate) == reference_node_count(gate)
        assert package._depth(gate) == reference_depth(gate)
        return package.multiply(gate, state)
    if kind == "scale":
        _, magnitude, phase = op
        return package.scale(state, magnitude * complex(math.cos(phase), math.sin(phase)))
    _, qubit = op[:2]
    operator = DECAY if kind == "decay" else (PROJ_ONE if op[2] else PROJ_ZERO)
    result = package.multiply(package.gate(operator, qubit, None, num_qubits), state)
    return None if result.is_zero else package.normalize(result)


@settings(max_examples=60, deadline=None)
@given(
    num_qubits=st.integers(1, 4),
    table_size=st.sampled_from([0, 5, 1 << 18]),
    data=st.data(),
)
def test_memoised_queries_equal_reference_walks(num_qubits, table_size, data):
    package = DDPackage(num_qubits, compute_table_size=table_size)
    state = package.inc_ref(package.zero_state())
    for op in data.draw(operations(num_qubits)):
        if op[0] == "sweep":
            # Drop every state, sweep, and rebuild from a drawn vector:
            # freed nodes' ids are reused by the nodes built next.
            package.dec_ref(state)
            package.garbage_collect(force=True)
            state = package.inc_ref(package.from_state_vector(np.array(op[1])))
        else:
            new_state = apply(package, state, op, num_qubits)
            if new_state is None:
                continue
            package.inc_ref(new_state)
            package.dec_ref(state)
            state = new_state
            package.garbage_collect()
        assert_queries_match(package, state, num_qubits)


def test_ids_freed_by_a_sweep_are_answered_afresh():
    # Each round's states are dropped and swept; the next round's nodes
    # land on the freed ids.  The memo must answer them as new nodes.
    # Widths vary so that even the depth of a reused id changes.
    package = DDPackage(4)
    rng = np.random.default_rng(3)
    queried, reused = set(), 0
    for _ in range(30):
        states = []
        for _ in range(8):
            size = 2 ** int(rng.integers(1, 5))
            vector = rng.normal(size=size) * (rng.random(size) < 0.4)
            vector[rng.integers(size)] = 1.0
            states.append(package.from_state_vector(vector))
        for state in states:
            reused += id(state.node) in queried
            queried.add(id(state.node))
            assert_queries_match(package, state, reference_depth(state))
        states = state = None
        package.garbage_collect(force=True)
    assert reused > 0


# ----------------------------------------------------------------------
# Disabled memo, counters
# ----------------------------------------------------------------------


def test_disabled_memo_keeps_p_one_linear():
    # |+>^40: 40 nodes, 2^40 root-to-terminal paths.  Without sharing
    # inside the walk, P(1) of the last qubit would visit every path.
    package = DDPackage(40, compute_table_size=0)
    plus = (1 / math.sqrt(2), 1 / math.sqrt(2))
    state = package.product_state([plus] * 40)
    assert package.node_count(state) == 40
    for qubit in (0, 20, 39):
        assert package.probability_of_one(state, qubit) == pytest.approx(0.5)
    counters = package.metrics_snapshot()["counters"]
    assert counters["dd.memo.p_one.hits"] == 0
    assert counters["dd.memo.p_one.misses"] == 3
    assert package.metrics_snapshot()["gauges"]["dd.memo.p_one.entries"] == 0


def test_repeated_queries_advance_hit_counters():
    package = DDPackage(3)
    state = package.inc_ref(
        package.multiply(package.gate(gates.H, 0), package.zero_state())
    )
    for _ in range(3):
        package.probability_of_one(state, 0)
        package.node_count(state)
        package._depth(state)
    snapshot = package.metrics_snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    for name in ("p_one", "node_count", "depth"):
        assert counters[f"dd.memo.{name}.misses"] == 1
        assert counters[f"dd.memo.{name}.hits"] == 2
        assert counters[f"dd.memo.{name}.evictions"] == 0
        assert gauges[f"dd.memo.{name}.entries"] >= 1
    # The arithmetic tables' ratio (dd.compute.*) does not count queries.
    assert {key for key in counters if key.startswith("dd.compute.") and key.endswith(".hits")} == {
        f"dd.compute.{name}.hits" for name in ("add", "mat_vec", "mat_mat", "inner")
    }

    package.garbage_collect(force=True)
    gauges = package.metrics_snapshot()["gauges"]
    for name in ("p_one", "node_count", "depth"):
        assert gauges[f"dd.memo.{name}.entries"] == 0


def test_bound_evicts_wholesale():
    package = DDPackage(6, compute_table_size=4)
    plus = (1 / math.sqrt(2), 1 / math.sqrt(2))
    state = package.product_state([plus] * 6)
    assert package.probability_of_one(state, 5) == pytest.approx(0.5)
    counters = package.metrics_snapshot()["counters"]
    assert counters["dd.memo.p_one.evictions"] == 1
    assert package.metrics_snapshot()["gauges"]["dd.memo.p_one.entries"] == 0
