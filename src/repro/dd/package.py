"""The decision-diagram package: construction, arithmetic, and measurement.

This is a Python re-implementation of the decision-diagram engine the paper
builds on (Zulehner/Hillmich/Wille's JKU package, reference [39]), providing
everything stochastic simulation needs:

* canonical construction of vector and matrix nodes (:meth:`DDPackage.make_vector_node`,
  :meth:`DDPackage.make_matrix_node`),
* DD arithmetic — addition, matrix-vector and matrix-matrix multiplication,
  Kronecker products, inner products — all memoised through compute tables,
* construction of (multi-)controlled gate DDs over the full register,
* measurement: single-qubit outcome probabilities, collapsing measurement,
  and O(n)-per-shot sampling of complete basis states,
* memoised state queries — P(1) per qubit, node count and depth — which
  the simulators ask after every gate, damping slot and measurement,
* reference counting and garbage collection.

Normalisation schemes
---------------------
Vector nodes use the *sum-of-squares* scheme: outgoing weights ``(w0, w1)``
are scaled so ``|w0|^2 + |w1|^2 = 1`` and the first non-zero weight is real
and positive.  The scale factor is pushed into the incoming edge.  Two
consequences the simulator exploits heavily:

* the squared norm of the (sub-)state an edge represents is exactly
  ``|edge.weight|^2`` — so state norms (needed for the state-dependent
  amplitude-damping error of paper Example 6) are O(1) reads, and
* outcome probabilities factor along root-to-terminal paths, so sampling a
  complete measurement result costs O(n) per shot.

Matrix nodes use the classic QMDD scheme: weights are divided by the
leftmost weight of maximal magnitude, which becomes exactly 1.

Both schemes are canonical: sub-vectors/sub-matrices that are equal up to a
scalar map to the *same* node, which is what lets the unique table share
structure (paper Section IV-B).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import profile as _profile
from ..obs.metrics import MetricsRegistry
from .complex_table import ComplexTable, ComplexValue, DEFAULT_TOLERANCE
from .compute_table import ComputeTable, WalkMemo
from .edge import Edge
from .node import TERMINAL_VAR, Node
from .unique_table import UniqueTable

__all__ = ["DDPackage"]

#: Relative band within which two child magnitudes count as tied when
#: choosing the phase-anchor child in :meth:`DDPackage.make_vector_node`.
#: Rounding perturbs magnitudes of scalar multiples by a few ulp (~1e-16
#: relative); anything produced by genuinely different amplitudes on the
#: grids we canonicalise differs by far more than this.
_PHASE_TIE_RTOL = 1e-9

# 2x2 projectors used for controlled-gate construction and measurement.
PROJ_ZERO = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ_ONE = np.array([[0, 0], [0, 1]], dtype=complex)
IDENTITY_2X2 = np.eye(2, dtype=complex)


class DDPackage:
    """A self-contained decision-diagram engine for one simulation context.

    Parameters
    ----------
    num_qubits:
        Default register width for convenience constructors (``zero_state``,
        ``gate`` etc.).  Individual calls may override it.
    tolerance:
        Absolute tolerance for canonicalising complex edge weights.
    """

    def __init__(
        self,
        num_qubits: int,
        tolerance: float = DEFAULT_TOLERANCE,
        compute_table_size: int = 1 << 18,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self.complex_table = ComplexTable(tolerance)
        self.vector_table = UniqueTable()
        self.matrix_table = UniqueTable()
        self.terminal = Node(TERMINAL_VAR, ())
        self.zero_edge = Edge(self.terminal, self.complex_table.zero)
        self.one_edge = Edge(self.terminal, self.complex_table.one)
        size = compute_table_size
        self._add_table: ComputeTable[Edge] = ComputeTable("add", size)
        self._mat_vec_table: ComputeTable[Edge] = ComputeTable("mat_vec", size)
        self._mat_mat_table: ComputeTable[Edge] = ComputeTable("mat_mat", size)
        self._inner_table: ComputeTable[ComplexValue] = ComputeTable("inner", size)
        # State queries, memoised on the queried node's id.  Nodes are
        # immutable and hash-consed, so each answer is a pure function of
        # the node, and the unique table keeps every node (and so its id)
        # alive until the garbage-collection sweep that clears these.
        self._p_one_memo: WalkMemo[float] = WalkMemo(size)
        self._node_count_memo: ComputeTable[int] = ComputeTable("node_count", size)
        self._depth_memo: ComputeTable[int] = ComputeTable("depth", size)
        self._gate_cache: Dict[tuple, Edge] = {}
        #: Engine-local observability registry (GC sweeps, node growth, ...).
        #: Table hit/miss counters live in the tables themselves and are
        #: folded in by :meth:`metrics_snapshot`.
        self.metrics = MetricsRegistry()
        # Cached counter handle: garbage_collect() runs after every gate, so
        # the skip tally must not pay a registry lookup each time.
        self._gc_skipped = self.metrics.counter("dd.gc.skipped")

    # ------------------------------------------------------------------
    # Node construction and normalisation
    # ------------------------------------------------------------------

    def _canonical_child(self, edge: Edge, weight: ComplexValue) -> Edge:
        """Build a child edge, redirecting zero weights to the zero edge."""
        if weight.is_zero():
            return self.zero_edge
        return Edge(edge.node, weight)

    def make_vector_node(self, var: int, e0: Edge, e1: Edge) -> Edge:
        """Create a normalised vector node deciding qubit ``var``.

        ``e0``/``e1`` are the sub-state edges for ``var`` being |0>/|1>.
        Returns the (possibly terminal-zero) normalised edge to the node.
        """
        ct = self.complex_table
        w0, w1 = e0.weight, e1.weight
        if w0.is_zero() and w1.is_zero():
            return self.zero_edge
        mag2_0 = w0.magnitude_squared()
        mag2_1 = w1.magnitude_squared()
        norm = math.sqrt(mag2_0 + mag2_1)
        # Anchor the common phase on the larger-magnitude child: a leading
        # weight with |w| near the canonicalisation tolerance carries O(1)
        # relative noise in its components, and dividing by it would rotate
        # the whole sub-state by that noise.  The comparison is banded by a
        # *relative* tolerance (resolving to w0, which keeps the historical
        # first-non-zero convention for the equal-magnitude case): an exact
        # `>=` is not scale-invariant — mathematically equal magnitudes come
        # out a last-ulp apart, and which side wins flips between a vector
        # and its scalar multiples, anchoring their phases on different
        # children and breaking node sharing (the canonicity-under-scaling
        # hypothesis counterexample).  Within the band both children are
        # equally large, so the stability rationale is indifferent.
        reference = w0 if mag2_1 - mag2_0 <= _PHASE_TIE_RTOL * mag2_1 else w1
        phase = reference.value / reference.magnitude()
        common = norm * phase
        new_w0 = ct.lookup(w0.value / common) if not w0.is_zero() else ct.zero
        new_w1 = ct.lookup(w1.value / common) if not w1.is_zero() else ct.zero
        child0 = self._canonical_child(e0, new_w0)
        child1 = self._canonical_child(e1, new_w1)
        node = self.vector_table.lookup(var, (child0, child1))
        return Edge(node, ct.lookup(common))

    def make_matrix_node(self, var: int, edges: Sequence[Edge]) -> Edge:
        """Create a normalised matrix node deciding qubit ``var``.

        ``edges`` are the four quadrant edges in row-major order (top-left,
        top-right, bottom-left, bottom-right).
        """
        ct = self.complex_table
        weights = [e.weight for e in edges]
        mags = [w.magnitude() for w in weights]
        max_mag = max(mags)
        if max_mag == 0.0:
            return self.zero_edge
        # Leftmost weight of (numerically) maximal magnitude becomes 1.
        pivot_index = next(
            i for i, m in enumerate(mags) if m >= max_mag - ct.tolerance
        )
        pivot = weights[pivot_index]
        new_children: List[Edge] = []
        for i, (edge, weight) in enumerate(zip(edges, weights)):
            if i == pivot_index:
                new_children.append(Edge(edge.node, ct.one))
            elif weight.is_zero():
                new_children.append(self.zero_edge)
            else:
                new_children.append(
                    self._canonical_child(edge, ct.lookup(weight.value / pivot.value))
                )
        node = self.matrix_table.lookup(var, tuple(new_children))
        return Edge(node, pivot)

    # ------------------------------------------------------------------
    # State constructors
    # ------------------------------------------------------------------

    def zero_state(self, num_qubits: Optional[int] = None) -> Edge:
        """DD for the all-zeros basis state |0...0>."""
        n = self.num_qubits if num_qubits is None else num_qubits
        return self.basis_state([0] * n)

    def basis_state(self, bits: Sequence[int]) -> Edge:
        """DD for the computational basis state given by ``bits``.

        ``bits[0]`` is the most significant qubit ``q0`` (the top DD level),
        matching the paper's register convention.
        """
        edge = self.one_edge
        for var in range(len(bits) - 1, -1, -1):
            if bits[var]:
                edge = self.make_vector_node(var, self.zero_edge, edge)
            else:
                edge = self.make_vector_node(var, edge, self.zero_edge)
        return edge

    def product_state(self, qubit_states: Sequence[Tuple[complex, complex]]) -> Edge:
        """DD for a tensor product of single-qubit states ``(alpha, beta)``."""
        ct = self.complex_table
        edge = self.one_edge
        for var in range(len(qubit_states) - 1, -1, -1):
            alpha, beta = qubit_states[var]
            e0 = edge.weighted(ct, ct.lookup(complex(alpha)))
            e1 = edge.weighted(ct, ct.lookup(complex(beta)))
            edge = self.make_vector_node(var, e0, e1)
        return edge

    def from_state_vector(self, amplitudes: np.ndarray) -> Edge:
        """Build a vector DD from a dense state vector of length ``2**n``."""
        amplitudes = np.asarray(amplitudes, dtype=complex).reshape(-1)
        n = _log2_size(len(amplitudes), "state vector")
        return self._vector_from_array(amplitudes, 0, n)

    def _vector_from_array(self, segment: np.ndarray, var: int, n: int) -> Edge:
        ct = self.complex_table
        if var == n:
            value = complex(segment[0])
            if ct.approximately_zero(value):
                return self.zero_edge
            return Edge(self.terminal, ct.lookup(value))
        half = len(segment) // 2
        e0 = self._vector_from_array(segment[:half], var + 1, n)
        e1 = self._vector_from_array(segment[half:], var + 1, n)
        return self.make_vector_node(var, e0, e1)

    def to_state_vector(self, edge: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Expand a vector DD into a dense state vector (exponential; tests only)."""
        n = self.num_qubits if num_qubits is None else num_qubits
        out = np.zeros(2**n, dtype=complex)
        self._fill_vector(edge, 0, n, 0, 1.0 + 0.0j, out)
        return out

    def _fill_vector(
        self, edge: Edge, var: int, n: int, offset: int, factor: complex, out: np.ndarray
    ) -> None:
        if edge.weight.is_zero():
            return
        factor = factor * edge.weight.value
        if edge.is_terminal:
            # A non-zero terminal edge above the bottom level cannot occur in
            # well-formed vector DDs; it would mean a level was skipped.
            if var != n:
                raise ValueError("malformed vector DD: early non-zero terminal")
            out[offset] = factor
            return
        half = 2 ** (n - var - 1)
        node = edge.node
        self._fill_vector(node.edges[0], var + 1, n, offset, factor, out)
        self._fill_vector(node.edges[1], var + 1, n, offset + half, factor, out)

    # ------------------------------------------------------------------
    # Matrix constructors
    # ------------------------------------------------------------------

    def identity(self, num_qubits: Optional[int] = None) -> Edge:
        """Matrix DD of the identity over ``num_qubits`` qubits."""
        n = self.num_qubits if num_qubits is None else num_qubits
        edge = self.one_edge
        for var in range(n - 1, -1, -1):
            edge = self.make_matrix_node(
                var, (edge, self.zero_edge, self.zero_edge, edge)
            )
        return edge

    def tensor_operator(self, factors: Sequence[Optional[np.ndarray]]) -> Edge:
        """Matrix DD of ``factors[0] (x) factors[1] (x) ...``.

        ``None`` entries stand for 2x2 identities.  ``factors[0]`` acts on
        the most significant qubit ``q0``.
        """
        ct = self.complex_table
        edge = self.one_edge
        for var in range(len(factors) - 1, -1, -1):
            matrix = factors[var]
            if matrix is None:
                edge = self.make_matrix_node(
                    var, (edge, self.zero_edge, self.zero_edge, edge)
                )
                continue
            matrix = np.asarray(matrix, dtype=complex)
            if matrix.shape != (2, 2):
                raise ValueError("tensor factors must be 2x2 matrices")
            children = []
            for row in range(2):
                for col in range(2):
                    weight = ct.lookup(complex(matrix[row, col]))
                    children.append(edge.weighted(ct, weight) if not weight.is_zero() else self.zero_edge)
            edge = self.make_matrix_node(var, tuple(children))
        return edge

    def single_qubit_gate(
        self, matrix: np.ndarray, target: int, num_qubits: Optional[int] = None
    ) -> Edge:
        """Matrix DD of a single-qubit gate on ``target`` within the register."""
        n = self.num_qubits if num_qubits is None else num_qubits
        factors: List[Optional[np.ndarray]] = [None] * n
        factors[target] = np.asarray(matrix, dtype=complex)
        return self.tensor_operator(factors)

    def controlled_gate(
        self,
        matrix: np.ndarray,
        target: int,
        controls: Dict[int, int],
        num_qubits: Optional[int] = None,
    ) -> Edge:
        """Matrix DD of a (multi-)controlled single-qubit gate.

        ``controls`` maps control qubits to the basis value (0 or 1) that
        activates the gate.  The construction follows the decomposition::

            Op = P_ctrl (x) U (x) I  +  (I^n - P_ctrl (x) I (x) I)

        where both tensor terms are elementary products, so the whole
        operator is two linear-size DDs plus two DD additions.
        """
        n = self.num_qubits if num_qubits is None else num_qubits
        if not controls:
            return self.single_qubit_gate(matrix, target, n)
        if target in controls:
            raise ValueError("target qubit cannot also be a control")
        active: List[Optional[np.ndarray]] = [None] * n
        passive: List[Optional[np.ndarray]] = [None] * n
        for qubit, value in controls.items():
            projector = PROJ_ONE if value else PROJ_ZERO
            active[qubit] = projector
            passive[qubit] = projector
        active[target] = np.asarray(matrix, dtype=complex)
        t_active = self.tensor_operator(active)
        t_passive = self.tensor_operator(passive)
        rest = self.add(self.identity(n), self.negate(t_passive))
        return self.add(t_active, rest)

    def gate(
        self,
        matrix: np.ndarray,
        target: int,
        controls: Optional[Dict[int, int]] = None,
        num_qubits: Optional[int] = None,
    ) -> Edge:
        """Cached gate-DD constructor (the hot path of circuit simulation).

        The cache key uses the *bytes* of the 2x2 matrix, so numerically
        identical gates (e.g. every H in a circuit) share one DD.
        """
        n = self.num_qubits if num_qubits is None else num_qubits
        matrix = np.ascontiguousarray(matrix, dtype=complex)
        controls = controls or {}
        key = (matrix.tobytes(), target, tuple(sorted(controls.items())), n)
        cached = self._gate_cache.get(key)
        if cached is not None:
            return cached
        edge = self.controlled_gate(matrix, target, controls, n)
        # Pin gate DDs so garbage collection never drops them mid-circuit.
        self.matrix_table.inc_ref(edge)
        self._gate_cache[key] = edge
        return edge

    def gate_cache_size(self) -> int:
        """Number of distinct gate DDs built so far (plan-compile bookkeeping)."""
        return len(self._gate_cache)

    def from_operator_matrix(self, matrix: np.ndarray) -> Edge:
        """Build a matrix DD from a dense ``2**n x 2**n`` operator."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator must be a square matrix")
        n = _log2_size(matrix.shape[0], "operator")
        return self._matrix_from_array(matrix, 0, n)

    def _matrix_from_array(self, block: np.ndarray, var: int, n: int) -> Edge:
        ct = self.complex_table
        if var == n:
            value = complex(block[0, 0])
            if ct.approximately_zero(value):
                return self.zero_edge
            return Edge(self.terminal, ct.lookup(value))
        half = block.shape[0] // 2
        quadrants = (
            block[:half, :half],
            block[:half, half:],
            block[half:, :half],
            block[half:, half:],
        )
        children = tuple(self._matrix_from_array(q, var + 1, n) for q in quadrants)
        return self.make_matrix_node(var, children)

    def to_operator_matrix(self, edge: Edge, num_qubits: Optional[int] = None) -> np.ndarray:
        """Expand a matrix DD into a dense operator (exponential; tests only)."""
        n = self.num_qubits if num_qubits is None else num_qubits
        out = np.zeros((2**n, 2**n), dtype=complex)
        self._fill_matrix(edge, 0, n, 0, 0, 1.0 + 0.0j, out)
        return out

    def _fill_matrix(
        self,
        edge: Edge,
        var: int,
        n: int,
        row: int,
        col: int,
        factor: complex,
        out: np.ndarray,
    ) -> None:
        if edge.weight.is_zero():
            return
        factor = factor * edge.weight.value
        if edge.is_terminal:
            if var != n:
                raise ValueError("malformed matrix DD: early non-zero terminal")
            out[row, col] = factor
            return
        half = 2 ** (n - var - 1)
        node = edge.node
        self._fill_matrix(node.edges[0], var + 1, n, row, col, factor, out)
        self._fill_matrix(node.edges[1], var + 1, n, row, col + half, factor, out)
        self._fill_matrix(node.edges[2], var + 1, n, row + half, col, factor, out)
        self._fill_matrix(node.edges[3], var + 1, n, row + half, col + half, factor, out)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def negate(self, edge: Edge) -> Edge:
        """Return the DD scaled by -1 (weight flip on the root edge)."""
        return self.scale(edge, -1.0 + 0.0j)

    def scale(self, edge: Edge, factor: complex) -> Edge:
        """Return the DD scaled by an arbitrary complex ``factor``."""
        ct = self.complex_table
        weight = ct.multiply(edge.weight, ct.lookup(complex(factor)))
        if weight.is_zero():
            return self.zero_edge
        return Edge(edge.node, weight)

    def add(self, e1: Edge, e2: Edge) -> Edge:
        """Pointwise sum of two vector DDs or two matrix DDs.

        Memoised on ``(node1, node2, w2/w1)`` — the common factor ``w1`` is
        stripped so scalar multiples of previously summed operands hit the
        cache.

        This (like every public arithmetic entry point) is a thin shim over
        the recursive body so the hot-loop profiler can time whole top-level
        operations: recursion goes through the private ``_add`` directly and
        stays uninstrumented, and when profiling is off the shim costs one
        ``is None`` test.
        """
        prof = _profile.ACTIVE
        if prof is None:
            return self._add(e1, e2)
        token = prof.op_begin("add")
        try:
            return self._add(e1, e2)
        finally:
            prof.op_end(token, "add")

    def _add(self, e1: Edge, e2: Edge) -> Edge:
        if e1.is_zero:
            return e2
        if e2.is_zero:
            return e1
        ct = self.complex_table
        if e1.is_terminal and e2.is_terminal:
            return Edge(self.terminal, ct.add(e1.weight, e2.weight))
        if e1.is_terminal or e2.is_terminal:
            raise ValueError("cannot add DDs of mismatched depth")
        if e1.node.var != e2.node.var:
            raise ValueError(
                f"cannot add DDs at different levels ({e1.node.var} vs {e2.node.var})"
            )
        ratio = ct.divide(e2.weight, e1.weight)
        key = (id(e1.node), id(e2.node), id(ratio))
        cached = self._add_table.lookup(key)
        if cached is None:
            node1, node2 = e1.node, e2.node
            children = tuple(
                self._add(node1.edges[i], node2.edges[i].weighted(ct, ratio))
                for i in range(len(node1.edges))
            )
            if len(children) == 2:
                cached = self.make_vector_node(node1.var, children[0], children[1])
            else:
                cached = self.make_matrix_node(node1.var, children)
            self._add_table.insert(key, cached)
        return cached.weighted(ct, e1.weight)

    def multiply(self, operator: Edge, state: Edge) -> Edge:
        """Matrix-vector product: apply an operator DD to a state DD."""
        prof = _profile.ACTIVE
        if prof is None:
            return self._multiply(operator, state)
        token = prof.op_begin("multiply")
        try:
            return self._multiply(operator, state)
        finally:
            prof.op_end(token, "multiply")

    def _multiply(self, operator: Edge, state: Edge) -> Edge:
        if operator.is_zero or state.is_zero:
            return self.zero_edge
        ct = self.complex_table
        weight = ct.multiply(operator.weight, state.weight)
        if operator.is_terminal and state.is_terminal:
            return Edge(self.terminal, weight)
        if operator.is_terminal or state.is_terminal:
            raise ValueError("cannot multiply DDs of mismatched depth")
        if operator.node.var != state.node.var:
            raise ValueError(
                "operator and state DDs decide different qubits at the same level"
            )
        key = (id(operator.node), id(state.node))
        cached = self._mat_vec_table.lookup(key)
        if cached is None:
            m, v = operator.node, state.node
            var = m.var
            r0 = self._add(
                self._multiply(m.edges[0], v.edges[0]),
                self._multiply(m.edges[1], v.edges[1]),
            )
            r1 = self._add(
                self._multiply(m.edges[2], v.edges[0]),
                self._multiply(m.edges[3], v.edges[1]),
            )
            cached = self.make_vector_node(var, r0, r1)
            self._mat_vec_table.insert(key, cached)
        return cached.weighted(ct, weight)

    def multiply_matrices(self, left: Edge, right: Edge) -> Edge:
        """Matrix-matrix product ``left @ right`` of two operator DDs."""
        prof = _profile.ACTIVE
        if prof is None:
            return self._multiply_matrices(left, right)
        token = prof.op_begin("multiply_matrices")
        try:
            return self._multiply_matrices(left, right)
        finally:
            prof.op_end(token, "multiply_matrices")

    def _multiply_matrices(self, left: Edge, right: Edge) -> Edge:
        if left.is_zero or right.is_zero:
            return self.zero_edge
        ct = self.complex_table
        weight = ct.multiply(left.weight, right.weight)
        if left.is_terminal and right.is_terminal:
            return Edge(self.terminal, weight)
        if left.is_terminal or right.is_terminal:
            raise ValueError("cannot multiply matrix DDs of mismatched depth")
        if left.node.var != right.node.var:
            raise ValueError("matrix DDs decide different qubits at the same level")
        key = (id(left.node), id(right.node))
        cached = self._mat_mat_table.lookup(key)
        if cached is None:
            a, b = left.node, right.node
            var = a.var
            children = []
            for row in range(2):
                for col in range(2):
                    children.append(
                        self._add(
                            self._multiply_matrices(a.edges[2 * row], b.edges[col]),
                            self._multiply_matrices(a.edges[2 * row + 1], b.edges[2 + col]),
                        )
                    )
            cached = self.make_matrix_node(var, tuple(children))
            self._mat_mat_table.insert(key, cached)
        return cached.weighted(ct, weight)

    def kron(self, top: Edge, bottom: Edge, bottom_qubits: int) -> Edge:
        """Kronecker product placing ``top`` above ``bottom``.

        ``bottom`` must span exactly ``bottom_qubits`` qubits starting at
        level 0; its levels are shifted down below ``top``.  Works for both
        vector and matrix DDs (operands must be of the same kind).
        """
        prof = _profile.ACTIVE
        token = prof.op_begin("kron") if prof is not None else None
        try:
            top_qubits = self._depth(top)
            shifted = self._shift_levels(bottom, top_qubits, {})
            return self._attach_below(top, shifted, {})
        finally:
            if prof is not None:
                prof.op_end(token, "kron")

    def _depth(self, edge: Edge) -> int:
        key = id(edge.node)
        depth = self._depth_memo.lookup(key)
        if depth is None:
            depth = self._depth_memo.insert(key, _depth_of(edge.node))
        return depth

    def _shift_levels(self, edge: Edge, offset: int, memo: Dict[int, Edge]) -> Edge:
        if edge.is_terminal:
            return edge
        cached = memo.get(id(edge.node))
        if cached is None:
            node = edge.node
            children = tuple(
                self._shift_levels(child, offset, memo) for child in node.edges
            )
            if len(children) == 2:
                cached = self.make_vector_node(node.var + offset, children[0], children[1])
            else:
                cached = self.make_matrix_node(node.var + offset, children)
            memo[id(node)] = cached
        return cached.weighted(self.complex_table, edge.weight)

    def _attach_below(self, top: Edge, bottom: Edge, memo: Dict[int, Edge]) -> Edge:
        if top.is_zero:
            return self.zero_edge
        if top.is_terminal:
            return bottom.weighted(self.complex_table, top.weight)
        cached = memo.get(id(top.node))
        if cached is None:
            node = top.node
            children = tuple(
                self._attach_below(child, bottom, memo) for child in node.edges
            )
            if len(children) == 2:
                cached = self.make_vector_node(node.var, children[0], children[1])
            else:
                cached = self.make_matrix_node(node.var, children)
            memo[id(node)] = cached
        return cached.weighted(self.complex_table, top.weight)

    def conjugate_transpose(self, edge: Edge) -> Edge:
        """Adjoint of a matrix DD (conjugate weights, transpose quadrants)."""
        return self._adjoint(edge, {})

    def _adjoint(self, edge: Edge, memo: Dict[int, Edge]) -> Edge:
        ct = self.complex_table
        if edge.is_terminal:
            return Edge(self.terminal, ct.conjugate(edge.weight))
        cached = memo.get(id(edge.node))
        if cached is None:
            node = edge.node
            children = (
                self._adjoint(node.edges[0], memo),
                self._adjoint(node.edges[2], memo),
                self._adjoint(node.edges[1], memo),
                self._adjoint(node.edges[3], memo),
            )
            cached = self.make_matrix_node(node.var, children)
            memo[id(node)] = cached
        return cached.weighted(ct, ct.conjugate(edge.weight))

    # ------------------------------------------------------------------
    # Inner products, norms, fidelities
    # ------------------------------------------------------------------

    def inner_product(self, bra: Edge, ket: Edge) -> complex:
        """Sesquilinear inner product ``<bra|ket>`` of two vector DDs."""
        if bra.is_zero or ket.is_zero:
            return 0.0 + 0.0j
        ct = self.complex_table
        factor = ct.conjugate(bra.weight).value * ket.weight.value
        prof = _profile.ACTIVE
        token = prof.op_begin("inner_product") if prof is not None else None
        try:
            return factor * self._inner_nodes(bra.node, ket.node)
        finally:
            if prof is not None:
                prof.op_end(token, "inner_product")

    def _inner_nodes(self, a: Node, b: Node) -> complex:
        if a.is_terminal and b.is_terminal:
            return 1.0 + 0.0j
        if a.is_terminal or b.is_terminal:
            raise ValueError("cannot take inner product of DDs of mismatched depth")
        key = (id(a), id(b))
        cached = self._inner_table.lookup(key)
        if cached is not None:
            return complex(cached)
        total = 0.0 + 0.0j
        for ea, eb in zip(a.edges, b.edges):
            if ea.weight.is_zero() or eb.weight.is_zero():
                continue
            factor = ea.weight.value.conjugate() * eb.weight.value
            total += factor * self._inner_nodes(ea.node, eb.node)
        # Return the *canonicalised* value, not the raw total: the memo stores
        # the snapped representative, so returning ``total`` here would make
        # the first (cold) computation differ from every later memo hit by up
        # to the complex-table tolerance — a history-dependent wobble the
        # prefix-sharing equivalence gate (and chunked-vs-serial estimate
        # aggregation) cannot tolerate.
        snapped = complex(self.complex_table.lookup(total))
        self._inner_table.insert(key, snapped)
        return snapped

    def squared_norm(self, edge: Edge) -> float:
        """Squared norm of the state an edge represents.

        With sum-of-squares normalisation this is just ``|weight|^2`` — the
        O(1) read the stochastic amplitude-damping insertion relies on.
        """
        return edge.weight.magnitude_squared()

    def fidelity(self, a: Edge, b: Edge) -> float:
        """Quadratic overlap ``|<a|b>|^2`` (paper's property template, Eq. 1)."""
        overlap = self.inner_product(a, b)
        return abs(overlap) ** 2

    def normalize(self, edge: Edge) -> Edge:
        """Rescale the root weight so the state has unit norm."""
        prof = _profile.ACTIVE
        token = prof.op_begin("normalize") if prof is not None else None
        try:
            norm = math.sqrt(self.squared_norm(edge))
            if norm == 0.0:
                raise ValueError("cannot normalise the zero vector")
            return self.scale(edge, 1.0 / norm)
        finally:
            if prof is not None:
                prof.op_end(token, "normalize")

    def norm_drift(self, edge: Edge) -> float:
        """Absolute deviation of the squared norm from unity.

        O(1) like :meth:`squared_norm` — cheap enough to check after every
        trajectory, which is exactly what the runner's numerical guard does
        (docs/ROBUSTNESS.md).
        """
        return abs(self.squared_norm(edge) - 1.0)

    def iterate_nonzero_amplitudes(self, edge: Edge):
        """Yield ``(bitstring, amplitude)`` for every non-zero basis state.

        Walks only non-zero paths, so a sparse state over many qubits is
        enumerated in time proportional to its support rather than ``2**n``.
        Bitstrings are ordered lexicographically (qubit 0 leftmost).
        """
        if edge.weight.is_zero():
            return

        def walk(node: Node, prefix: str, factor: complex):
            if node.is_terminal:
                yield prefix, factor
                return
            for bit, child in enumerate(node.edges):
                if child.weight.is_zero():
                    continue
                yield from walk(
                    child.node, prefix + str(bit), factor * child.weight.value
                )

        yield from walk(edge.node, "", edge.weight.value)

    def get_amplitude(self, edge: Edge, basis_state: Sequence[int]) -> complex:
        """Amplitude of one basis state (product of weights along the path)."""
        value = 1.0 + 0.0j
        current = edge
        for bit in basis_state:
            if current.weight.is_zero():
                return 0.0 + 0.0j
            value *= current.weight.value
            current = current.node.edges[1 if bit else 0]
        if current.weight.is_zero():
            return 0.0 + 0.0j
        return value * current.weight.value

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def probability_of_one(self, edge: Edge, qubit: int) -> float:
        """Probability that measuring ``qubit`` yields 1 (state unchanged).

        The P(1) mass below each node is memoised per qubit across calls
        (``dd.memo.p_one.*``), so asking again about a state, or about one
        that shares sub-diagrams with an earlier one, skips the shared part
        of the walk.
        """
        if edge.is_zero:
            raise ValueError("cannot measure the zero vector")
        memo = self._p_one_memo.table(qubit)

        def mass(node: Node) -> float:
            result = memo.get(id(node))
            if result is not None:
                return result
            if node.var == TERMINAL_VAR:
                raise ValueError("qubit index beyond DD depth")
            if node.var == qubit:
                result = node.edges[1].weight.magnitude_squared()
            else:
                result = 0.0
                for child in node.edges:
                    if child.weight.is_zero():
                        continue
                    result += child.weight.magnitude_squared() * mass(child.node)
            memo[id(node)] = result
            return result

        total = self.squared_norm(edge)
        root_mass = self._p_one_memo.answer(memo, edge.node, mass)
        return root_mass * edge.weight.magnitude_squared() / total

    def measure_qubit(
        self, edge: Edge, qubit: int, rng, collapse: bool = True
    ) -> Tuple[int, Edge, float]:
        """Measure one qubit: returns ``(outcome, post_state, p_outcome)``.

        The post-measurement state is collapsed (projector application plus
        renormalisation) when ``collapse`` is set, else the input edge is
        returned unchanged.
        """
        p_one = self.probability_of_one(edge, qubit)
        outcome = 1 if rng.random() < p_one else 0
        probability = p_one if outcome else 1.0 - p_one
        if not collapse:
            return outcome, edge, probability
        projector = PROJ_ONE if outcome else PROJ_ZERO
        n = self._depth(edge)
        collapsed = self.multiply(self.gate(projector, qubit, num_qubits=n), edge)
        collapsed = self.normalize(collapsed)
        return outcome, collapsed, probability

    def sample_basis_state(self, edge: Edge, rng) -> str:
        """Draw one complete measurement outcome in O(n).

        Exploits the sum-of-squares invariant: at each node the squared
        child-edge weights are the conditional outcome probabilities given
        the path so far.  Returns a bitstring with ``q0`` leftmost.
        """
        bits: List[str] = []
        node = edge.node
        while not node.is_terminal:
            p0 = node.edges[0].weight.magnitude_squared()
            p1 = node.edges[1].weight.magnitude_squared()
            total = p0 + p1
            if rng.random() * total < p0:
                bits.append("0")
                node = node.edges[0].node
            else:
                bits.append("1")
                node = node.edges[1].node
        return "".join(bits)

    def sample_counts(self, edge: Edge, shots: int, rng) -> Dict[str, int]:
        """Sample ``shots`` measurement outcomes into a counts histogram.

        ``shots == 1`` draws one root-to-terminal walk exactly as
        :meth:`sample_basis_state` does — the documented per-trajectory rng
        stream (one uniform per DD level) that the stochastic runner's
        reproducibility guarantees depend on.  Larger budgets use a single
        recursive *multinomial descent*: at each node one binomial draw
        splits the remaining shots between the two children, so the cost is
        O(support size) instead of O(shots x n) independent walks.
        """
        if shots <= 0:
            return {}
        if shots == 1:
            outcome = self.sample_basis_state(edge, rng)
            return {outcome: 1}
        counts: Dict[str, int] = {}
        self._sample_multinomial(edge.node, shots, rng, [], counts)
        return counts

    def _sample_multinomial(
        self, node: Node, shots: int, rng, prefix: List[str], counts: Dict[str, int]
    ) -> None:
        """Split ``shots`` down the DD, 0-branch first (deterministic order)."""
        base = len(prefix)
        while not node.is_terminal:
            p0 = node.edges[0].weight.magnitude_squared()
            p1 = node.edges[1].weight.magnitude_squared()
            taken0 = _binomial(rng, shots, p0 / (p0 + p1))
            if taken0 == shots:
                prefix.append("0")
                node = node.edges[0].node
                continue
            if taken0:
                prefix.append("0")
                self._sample_multinomial(node.edges[0].node, taken0, rng, prefix, counts)
                prefix.pop()
            shots -= taken0
            prefix.append("1")
            node = node.edges[1].node
        outcome = "".join(prefix)
        del prefix[base:]
        counts[outcome] = counts.get(outcome, 0) + shots

    # ------------------------------------------------------------------
    # Reference counting and garbage collection
    # ------------------------------------------------------------------

    def inc_ref(self, edge: Edge) -> Edge:
        """Pin a DD (vector or matrix) against garbage collection."""
        table = self._table_for(edge)
        if table is not None:
            table.inc_ref(edge)
        return edge

    def dec_ref(self, edge: Edge) -> None:
        """Release a previously pinned DD."""
        table = self._table_for(edge)
        if table is not None:
            table.dec_ref(edge)

    def _table_for(self, edge: Edge) -> Optional[UniqueTable]:
        if edge.node.is_terminal:
            return None
        return self.vector_table if edge.node.is_vector_node else self.matrix_table

    def garbage_collect(self, force: bool = False) -> int:
        """Collect unreferenced nodes; clears the compute tables if anything ran.

        Without ``force`` this is a *paced* collection: it only sweeps when a
        unique table's dead-node population exceeds its adaptive watermark
        (see :meth:`UniqueTable.should_collect`), and otherwise counts a
        ``dd.gc.skipped`` metric and returns immediately — the O(1) check the
        per-gate call site in :meth:`DDBackend._replace_state` relies on.
        Span boundaries still pass ``force=True`` to bound memory between
        jobs regardless of the watermark.
        """
        if not force and not (
            self.vector_table.should_collect() or self.matrix_table.should_collect()
        ):
            self._gc_skipped.inc()
            return 0
        prof = _profile.ACTIVE
        token = prof.op_begin("gc") if prof is not None else None
        try:
            collected = self.vector_table.garbage_collect()
            collected += self.matrix_table.garbage_collect()
            for table in (
                self._add_table,
                self._mat_vec_table,
                self._mat_mat_table,
                self._inner_table,
                self._p_one_memo,
                self._node_count_memo,
                self._depth_memo,
            ):
                table.clear()
            self.metrics.counter("dd.gc.sweeps").inc()
            self.metrics.counter("dd.gc.reclaimed_nodes").inc(collected)
            return collected
        finally:
            if prof is not None:
                prof.op_end(token, "gc")

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def node_count(self, edge: Edge) -> int:
        """Number of distinct nodes reachable from ``edge`` (excl. terminal).

        Memoised per root node (``dd.memo.node_count.*``): the simulators
        ask after every gate for peak tracking, and a warm package sees the
        same states again across trajectories.
        """
        key = id(edge.node)
        count = self._node_count_memo.lookup(key)
        if count is None:
            count = self._node_count_memo.insert(key, _count_nodes(edge.node))
        return count

    def stats(self) -> Dict[str, Dict]:
        """Aggregated statistics of all internal tables."""
        return {
            "complex_table": self.complex_table.stats(),
            "vector_table": self.vector_table.stats(),
            "matrix_table": self.matrix_table.stats(),
            "add": self._add_table.stats(),
            "mat_vec": self._mat_vec_table.stats(),
            "mat_mat": self._mat_mat_table.stats(),
            "inner": self._inner_table.stats(),
        }

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        """One observability snapshot covering every engine table.

        Extends the package's own registry (GC sweeps, node growth) with
        the hit/miss counters the unique, compute, complex, and state-query
        memo tables keep themselves, under the canonical ``dd.*`` metric
        names.  The memo tables report as ``dd.memo.*``, apart from the
        arithmetic tables' ``dd.compute.*``.  Callers
        wanting per-chunk numbers on a warm package should snapshot before
        and after and take :func:`repro.obs.delta_snapshots`.
        """
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        gauges = snapshot["gauges"]
        for prefix, table in (
            ("dd.unique.vector", self.vector_table),
            ("dd.unique.matrix", self.matrix_table),
        ):
            counters[f"{prefix}.hits"] = table.hits
            counters[f"{prefix}.misses"] = table.misses
            counters[f"{prefix}.collections"] = table.collections
            gauges[f"{prefix}.entries"] = len(table)
        for prefix, table in (
            ("dd.compute.add", self._add_table),
            ("dd.compute.mat_vec", self._mat_vec_table),
            ("dd.compute.mat_mat", self._mat_mat_table),
            ("dd.compute.inner", self._inner_table),
            ("dd.memo.p_one", self._p_one_memo),
            ("dd.memo.node_count", self._node_count_memo),
            ("dd.memo.depth", self._depth_memo),
        ):
            counters[f"{prefix}.hits"] = table.hits
            counters[f"{prefix}.misses"] = table.misses
            counters[f"{prefix}.evictions"] = table.evictions
            gauges[f"{prefix}.entries"] = len(table)
        complex_stats = self.complex_table.stats()
        counters["dd.complex.real.hits"] = complex_stats["real_hits"]
        counters["dd.complex.real.misses"] = complex_stats["real_misses"]
        gauges["dd.complex.entries"] = complex_stats["entries"]
        return snapshot


def _count_nodes(root: Node) -> int:
    """Distinct non-terminal nodes reachable from ``root`` (one DAG walk)."""
    if root.var == TERMINAL_VAR:
        return 0
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop().edges:
            node = child.node
            if node.var != TERMINAL_VAR and id(node) not in seen:
                seen.add(id(node))
                stack.append(node)
    return len(seen)


def _depth_of(node: Node) -> int:
    """Register width of the DD under ``node``: one past the deepest level
    on a walk down the first non-terminal child of each level."""
    depth = 0
    while node.var != TERMINAL_VAR:
        depth = max(depth, node.var + 1)
        next_node = None
        for child in node.edges:
            if child.node.var != TERMINAL_VAR:
                next_node = child.node
                break
        if next_node is None:
            break
        node = next_node
    return depth


def _log2_size(size: int, what: str) -> int:
    """Validate a power-of-two dimension and return its exponent."""
    n = size.bit_length() - 1
    if size <= 0 or 2**n != size:
        raise ValueError(f"{what} dimension must be a power of two, got {size}")
    return n


#: Below this trial count a Bernoulli sum beats the lgamma machinery.
_BINOMIAL_SMALL_N = 32


def _binomial(rng, n: int, p: float) -> int:
    """Draw Binomial(n, p) from ``rng``, deterministically for a given stream.

    Small ``n`` sums Bernoulli trials directly.  Larger ``n`` consumes one
    uniform and inverts the CDF starting at the distribution's mode and
    expanding outward, so the expected number of pmf terms evaluated is
    O(sqrt(n p (1-p))) rather than O(n).  Any fixed enumeration order of the
    support yields an exact sampler, and mode-outward visits the bulk of the
    mass first.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n < _BINOMIAL_SMALL_N:
        hits = 0
        for _ in range(n):
            if rng.random() < p:
                hits += 1
        return hits
    log_p = math.log(p)
    log_q = math.log1p(-p)
    log_n_fact = math.lgamma(n + 1)

    def pmf(k: int) -> float:
        return math.exp(
            log_n_fact
            - math.lgamma(k + 1)
            - math.lgamma(n - k + 1)
            + k * log_p
            + (n - k) * log_q
        )

    u = rng.random()
    mode = int((n + 1) * p)
    if mode > n:
        mode = n
    cumulative = pmf(mode)
    if u < cumulative:
        return mode
    low, high = mode - 1, mode + 1
    last = mode
    while low >= 0 or high <= n:
        if high <= n:
            cumulative += pmf(high)
            last = high
            if u < cumulative:
                return high
            high += 1
        if low >= 0:
            cumulative += pmf(low)
            last = low
            if u < cumulative:
                return low
            low -= 1
    # Floating-point round-off can leave a sliver of mass unassigned; the
    # outermost visited value absorbs it.
    return last
