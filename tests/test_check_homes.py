"""Each guarantee check of the package is defined in exactly one function.

The checks are found in the parsed source of ``gridabs``: a reference to a
tolerance constant, the corner-inset expression ``1e-9 * <grid>.side``, a
cell's upper face ``<x> + <grid>.side``, the diameter bound with its slack
``bound * (1.0 + ATOL)``, or a ``FeasibilityError`` whose message says "not
admissible". A second function holding one of them is a copy that a change
to the check would have to find.
Likewise only the uniform-step generator behind ``rk4_path`` and
``rk4_endpoint`` builds a knot grid: the closed loop steps on its controller
banks' grid instead of building its own; only ``DenseTrajectory``
matches one time to its knots, by bisection; and only
``GridDecomposition`` maps cell indices to coordinates (``origin + side * ...``).
A transition system keeps its transitions as arrays, so only its row view
and ``from_json`` construct ``Transition`` objects; the closed loop reports
all its runs in one batched ``MonitorReport``, so only the batched integrator
and the worst-case reduction construct one. Rows are told apart in one
place, ``_distinct_rows``: the build's classes, the distinct actions and the
writers' tables all come from it. The input budget v has one home,
the model: both budget checks read ``model.input_bound``, and neither the
discretization parameters nor the certificate hold a copy of it. Whether a
point lies in a cell is decided in one place, ``cell_indices``: no box
tests membership itself. The builtin fields add their neighbor terms in one
place, ``_neighbor_field``. No module reads another object's private
attribute (``x._name`` with ``x`` other than ``self``). The joint and the
one-agent closed loops share one RK4 driver, ``_drive``, the only caller of
``rk4_steps`` besides the uniform-step generator and the only place a
closed-loop run is found non-finite, and one bank check, ``_check_banks``,
the one home of the rule that a bank has size 1 or B. Corner-pinned samples
come from one method, the only reader of ``corner_inset``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import gridabs

SRC = Path(gridabs.__file__).parent


def _homes(match):
    """Scopes (``module.Class.function``) whose own code holds a node matching ``match``."""
    homes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if match(child):
                homes.add(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return homes


def _reads(name):
    def match(node):
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == name
    return match


def _corner_inset(node):
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
        return False
    operands = (node.left, node.right)
    return (any(isinstance(o, ast.Constant) and o.value == 1e-9 for o in operands)
            and any(isinstance(o, ast.Attribute) and o.attr == "side" for o in operands))


def _upper_face(node):
    """``<x> + <grid>.side``: a cell's upper face from its lower one."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(_reads("side")(o) for o in (node.left, node.right)))


def _bound_with_slack(node):
    """``bound * (1.0 + ATOL)``: the diameter bound with its slack."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and _reads("bound")(node.left) and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Add) and _reads("ATOL")(node.right.right)
            and isinstance(node.right.left, ast.Constant) and node.right.left.value == 1.0)


def _not_admissible(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "FeasibilityError"
            and any(isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "not admissible" in c.value
                    for arg in node.args for c in ast.walk(arg)))


@pytest.mark.parametrize("match, home", [
    (_reads("DISTANCE_ATOL"), "geometry.GridDecomposition.inflated_contains"),
    (_reads("INPUT_ATOL"), "simulate.exceeds_input_bound"),
    (_reads("MARGINAL_REL"), "abstraction.marginal_endpoints"),
    (_corner_inset, "geometry.GridDecomposition.corner_inset"),
    (_upper_face, "geometry.GridDecomposition.cell_box"),
    (_not_admissible, "admissibility.require_admissible"),
    (_bound_with_slack, "admissibility.admissible_period_interval"),
], ids=["distance", "input", "marginal", "corner-inset", "upper-face", "admissibility",
        "diameter-bound"])
def test_each_check_has_one_home(match, home):
    assert _homes(match) == {home}


def _calls(name):
    def match(node):
        return isinstance(node, ast.Call) and _reads(name)(node.func)
    return match


def test_knot_grid_is_built_in_one_place():
    assert _homes(_calls("knot_times")) == {"integrate._uniform_steps"}


def test_one_time_is_matched_to_its_knots_in_the_dense_output():
    # a bank reads its stored knots through DenseTrajectory.knot, not a table of its own
    assert _homes(_calls("bisect_right")) == {"integrate.DenseTrajectory._interval"}
    assert _homes(_calls("bisect_left")) == {"integrate.DenseTrajectory.knot"}


def _offset_from_origin(node):
    """``<x>.origin + <x>.side * ...`` (either order), a cell-to-coordinate formula."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False

    def scaled(o):
        return (isinstance(o, ast.BinOp) and isinstance(o.op, ast.Mult)
                and any(_reads("side")(f) for f in (o.left, o.right)))

    return any(_reads("origin")(a) and scaled(b)
               for a, b in ((node.left, node.right), (node.right, node.left)))


def test_cell_coordinates_are_computed_in_the_grid():
    homes = _homes(_offset_from_origin)
    assert homes and all(h.startswith("geometry.GridDecomposition.") for h in homes), homes


def test_transition_objects_are_built_in_two_places():
    assert _homes(_calls("Transition")) == {"abstraction.TransitionRows.__getitem__",
                                            "abstraction.from_json"}


def _input_bound_of(owner):
    """``<owner>.input_bound``."""
    def match(node):
        return (isinstance(node, ast.Attribute) and node.attr == "input_bound"
                and _reads(owner)(node.value))
    return match


def test_the_input_budget_is_read_from_the_model():
    # both budget checks judge |k| against model.input_bound, and the
    # discretization parameters keep no copy of it to read instead
    def budget_check(node):
        return (_calls("exceeds_input_bound")(node) and len(node.args) == 2
                and _input_bound_of("model")(node.args[1]))

    checks = {"simulate.check_input_bound", "abstraction.certify_window_input_bound"}
    assert _homes(_calls("exceeds_input_bound")) == checks
    assert _homes(budget_check) == checks
    assert _homes(_input_bound_of("params")) == set()
    fields = {f.name for f in dataclasses.fields(gridabs.DiscretizationParams)}
    assert fields == {"diameter", "period", "reach_radius", "admissible", "reason"}
    assert "input_bound" not in {f.name for f in dataclasses.fields(gridabs.BoundCertificate)}


def test_points_are_placed_in_cells_in_one_place():
    assert _homes(_calls("contains")) == set()
    assert _homes(_calls("cell_indices")) == {"geometry.GridDecomposition.cell_of",
                                              "geometry.GridDecomposition.first_outside",
                                              "controller.endpoint_cells"}


def test_monitor_reports_are_built_in_two_places():
    assert _homes(_calls("MonitorReport")) == {
        "simulate.integrate_closed_loop_batch", "simulate.MonitorReport.worst"}


def test_rows_are_deduplicated_in_one_place():
    assert _homes(_calls("lexsort")) == {"abstraction._distinct_rows"}
    assert _homes(_calls("unique")) == set()


def test_neighbor_terms_are_added_in_one_place():
    assert _homes(_calls("_sum_in_order")) == {"dynamics._neighbor_field"}
    assert not hasattr(gridabs.dynamics, "neighbor_sum")


def _foreign_private_read(node):
    """``x._name`` loaded, ``x`` not ``self`` and ``_name`` not a dunder."""
    return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.endswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self"))


def test_no_module_reads_another_objects_private_attributes():
    assert _homes(_foreign_private_read) == set()


def test_the_closed_loops_share_one_rk4_driver():
    assert _homes(_calls("rk4_steps")) == {"integrate._uniform_steps", "simulate._drive"}
    assert _homes(_calls("IntegrationError")) == {"simulate._drive"}


def _size_rule(node):
    """``<bank>.size not in (1, ...)``: a bank broadcasts or gives each run a member."""
    return (isinstance(node, ast.Compare) and _reads("size")(node.left)
            and any(isinstance(op, ast.NotIn) for op in node.ops)
            and any(isinstance(c, ast.Tuple) and c.elts and isinstance(c.elts[0], ast.Constant)
                    and c.elts[0].value == 1 for c in node.comparators))


def test_the_bank_size_rule_has_one_home():
    assert _homes(_size_rule) == {"simulate._check_banks"}


def test_corner_pinned_samples_are_drawn_in_one_place():
    assert _homes(_reads("corner_inset")) == {"geometry.GridDecomposition.sample_with_corners"}
