"""Single paths through the library, kept so by syntax checks (and one
runtime check).

The group action has exactly two entry points.  Finite groups act
through `groups.apply_element`, the only caller of
`Polynomial.apply_linear_map`; algebraic groups act through
`algebraic.action_graph_generators`, the only reader of an entry of the
action matrix.  Every other action is derived from these two.

Rational-function gcds have no algebra of their own:
`ratfunc.multivariate_gcd` takes the lcm from
`groebner.elimination_ideal`, and `ratfunc` keeps no pseudo-remainder
sequence.

Sparse division has one kernel, `groebner._reduce_terms`, working on
raw field payloads and packed-int monomials: only `groebner` and
`ratfunc` touch it or its `_reducer`s, inside `groebner` only the
kernel's unpacking helper wraps payloads into `Scalar`s, the kernel
calls no tuple monomial operation or sort key, and one function builds
the packers.  Its tail updates only multiply and add through the
field's accumulator; each coefficient is settled and tested for zero
once, when its term is popped.  `PrimeField` (unreduced ints, reduced
mod p when settled), `Rationals` (unreduced integer pairs, put in lowest
terms when settled) and `NumberField` (the same unreduced pairs for
rational values, unnormalised integer vectors for the others, each made
canonical when settled) override the base accumulator; the base one,
which rational function fields keep, settles nothing.
Every reducer list the kernel reads only grows by `append`, and its
owner (the engine, `reduce_basis`, a `GroebnerBasis`) hands the list's
`_FirstDivisors` (its memo of first divisors and its exponent index) to
every division on it, so a remembered index and a bit position stay
exact; a throwaway list, as in `ratfunc`, gets a fresh one.  Only the
kernel builds the index.
`groebner.s_polynomial` shifts the reducers' packed tails itself: no
tuple shift, no scaled copy, no polynomial subtraction.
The Buchberger pair update runs on the same packings: the lcms, degrees
and divisibility tests of `BuchbergerEngine.add_generator` are int
operations on leading exponents, never tuple monomial operations.

Rational arithmetic runs on integer pairs and number-field arithmetic
on integer vectors, never on `Fraction`s, and `fields` keeps no
univariate polynomial helpers: minimal polynomials are parsed as
polynomials over Q, and `parsing` defines no value type of its own.
A number-field element in Q is the rational integer pair, and its
arithmetic is the one copy of pair arithmetic that `Rationals` uses.
Only `fields` tells the two payload forms apart or indexes into a
vector; `polynomials` lifts payloads to integer vectors only through
the field's `_integral`.

A rational is reduced modulo a prime in one place,
`PrimeField._from_integral`, the only modular inverse outside
`PrimeField._inv`.  The two modular certificates over Q, the closure's
g^M test and the hsop test of Dade's construction, reach it through
`PrimeField.residue` and share one prime, `fields.MODULAR_PRIME`.

Text has one parser entry and one printer.  `parsing.parse_expression`
is called only by `PolynomialRing.parse`, which also parses scalars,
matrix entries (`Field.parse` reads a constant polynomial) and minimal
polynomials; a number-field element prints through `Polynomial.format`,
with no term loop of its own.  The power-degree cap has one home:
`DEGREE_BOUND` is read only by `polynomials` and by `groebner`'s
packed monomials.

Substitution has one memoised path, `polynomials.monomial_image`: a
table from monomials x^a to their images, filled with one product per
new monomial.  `Polynomial.evaluate` (images are a point's
coordinates), `Polynomial.substitute` (and through it
`apply_linear_map` and `groups.apply_element`) and `groups.reynolds`
read it; it multiplies only through the callable it is given, and
`groups` keeps no monomial-image helper of its own.  It stays the one
table; points whose coordinates are images of integers (as every
sampled point is) run on ints instead: `polynomials.evaluate_integral`
sums a polynomial's lifted terms over int power rows, with no field
payload method in its term loop, and settles the sum once.

Exact linear algebra has one elimination kernel, `linalg._echelon`, on
sparse rows of raw payloads: it computes only through the field's
payload methods.  Degree-d invariants have one solver,
`invariants.fixed_forms`, the only caller of `linalg.nullspace`; finite
and algebraic groups reach it only through `invariant_basis` and
`algebraic_invariant_basis`, whose equations it hands to the kernel as
sparse rows, never padded out with zeros.

The Buchberger engine has one pair-selection path: one heap of pairs
keyed on sugar, and `BuchbergerEngine.add_generator` takes the sugar
of every generator it adjoins, with no default.

The Molien series works on the group's own matrices, through traces of
their powers and Newton's identities, without a ring of polynomials in t.

Every Groebner basis is computed once, and it is reduced only when the
reduced basis is the output: `reduce_basis` runs for the printed basis
of `cli.cmd_groebner`, for `groebner.elimination_ideal`, and for
`algebraic.invariant_field_generators`, whose reduced basis over K(x)
gives the printed generators, while bases used for normal forms,
membership or a dimension count stay unreduced.  Invariant fields run
Buchberger over the base field only; K(x) sees just that final
inter-reduction, which one runtime check below watches.
Dade's construction tests each candidate list once: the test that
accepts the last slot is the hsop test of the result.

Polynomials change rings only through `polynomials.transport`, by
variable name: each variable goes to the target variable of its own
name or of the name a rename dict gives it, and no caller spells out a
positional index map.  The source also carries no import that is never
read and no function-local name that is stored and never read.

Results reach the user through one report path.  Every CLI command
takes the parsed arguments and returns raw result values; `cli.main`
converts them once with `cli._jsonable` and is the only writer of the
report.
"""

import ast
import inspect
from pathlib import Path

import invar
from invar import groebner
from invar.cli import main
from invar.polynomials import transport
from invar.ratfunc import RationalFunctionField
from invar.specfile import fixture_path

SOURCES = sorted(Path(invar.__file__).parent.glob("*.py"))


def _sites(matches):
    """(module, enclosing function) of every syntax node that matches."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, None)
    return found


def test_apply_linear_map_is_called_only_by_apply_element():
    def is_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "apply_linear_map")

    assert _sites(is_call) == {("groups", "apply_element")}


def test_action_matrix_is_indexed_only_by_the_graph_generators():
    def is_index(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "action_matrix")

    assert _sites(is_index) == {("algebraic", "action_graph_generators")}


def test_division_kernel_is_used_only_by_groebner_and_ratfunc():
    kernel = {"_reduce_terms", "_reducer"}

    def is_reference(node):
        return ((isinstance(node, ast.Name) and node.id in kernel)
                or (isinstance(node, ast.Attribute) and node.attr in kernel)
                or (isinstance(node, ast.alias) and node.name in kernel))

    assert {module for module, _ in _sites(is_reference)} == {"groebner", "ratfunc"}


def test_groebner_wraps_scalars_only_in_the_kernel():
    def is_scalar(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "Scalar")

    assert {function for module, function in _sites(is_scalar)
            if module == "groebner"} == {"_unpacked"}


def test_kernel_computes_on_packed_monomials():
    kernel = next(node for node in _source("groebner").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_reduce_terms")
    called = {ast.unparse(node.func) for node in ast.walk(kernel) if isinstance(node, ast.Call)}
    assert not {f for f in called if f.rpartition(".")[2] in (
        "mono_mul", "mono_div", "mono_divides", "mono_support", "key")}
    assert _calls("_Packer") == {("groebner", "_packer")}


def test_kernel_zero_tests_only_popped_terms():
    kernel = next(node for node in _source("groebner").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_reduce_terms")
    calls = [node for node in ast.walk(kernel) if isinstance(node, ast.Call)]
    assert "field._accumulator" in {ast.unparse(node.func) for node in calls}
    # a popped coefficient is settled once and zero-tested once
    assert [ast.unparse(node) for node in calls
            if ast.unparse(node.func) in ("settle", "is_zero")] == ["settle(work.pop(t))",
                                                                     "is_zero(c)"]
    # a tail update only multiplies and adds through the accumulator
    (tail_loop,) = [node for node in ast.walk(kernel)
                    if isinstance(node, ast.For) and ast.unparse(node.iter) == "tail"]
    assert {ast.unparse(node.func) for node in ast.walk(tail_loop)
            if isinstance(node, ast.Call)} == {"work.get", "heapq.heappush", "mul", "add"}
    # the exact ground fields delay their reduction; the base class
    # (and so K(x)) settles nothing
    hooks = {node.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(f, ast.FunctionDef) and f.name == "_accumulator"
                     for f in node.body)}
    assert hooks == {"Field", "PrimeField", "Rationals", "NumberField"}


def test_reducer_lists_only_grow_and_pass_their_memo():
    lists = {"self._reducers", "reducers"}
    nodes = list(ast.walk(_source("groebner")))
    assert {node.attr for node in nodes if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) in lists} == {"append"}
    assert not [node for node in nodes if isinstance(node, ast.Subscript)
                and ast.unparse(node.value) in lists and not isinstance(node.ctx, ast.Load)]
    assert not [node for node in nodes if isinstance(node, ast.AugAssign)
                and ast.unparse(node.target) in lists]
    assert {function for module, function in _sites(
        lambda node: isinstance(node, ast.Attribute) and node.attr in ("_reducers", "_memo")
        and isinstance(node.ctx, ast.Store))} == {"__init__"}

    calls = set()
    for module in ("groebner", "ratfunc"):
        for function in ast.walk(_source(module)):
            if isinstance(function, ast.FunctionDef):
                calls |= {(module, function.name, *map(ast.unparse, node.args[1:3]))
                          for node in ast.walk(function) if isinstance(node, ast.Call)
                          and ast.unparse(node.func) == "_reduce_terms"}
    assert calls == {("groebner", "normal_form", "self._reducers", "self._memo"),
                     ("groebner", "extend", "self._reducers", "self._memo"),
                     ("groebner", "normal_form", "reducers", "memo"),
                     ("groebner", "reduce_basis", "reducers", "memo"),
                     ("ratfunc", "_exact_div", "[_reducer(g, GREVLEX)]", "_FirstDivisors()")}
    # a `_FirstDivisors` is made where its list is, and only the kernel
    # builds its index
    assert _calls("_FirstDivisors") == {("groebner", "__init__"), ("groebner", "reducers"),
                                        ("groebner", "reduce_basis"), ("ratfunc", "_exact_div")}
    assert _calls("exponent_index") == {("groebner", "_reduce_terms")}


def test_pair_update_computes_on_packed_exponents():
    update = next(node for node in _class(_source("groebner"), "BuchbergerEngine").body
                  if isinstance(node, ast.FunctionDef) and node.name == "add_generator")
    called = {ast.unparse(node.func) for node in ast.walk(update) if isinstance(node, ast.Call)}
    assert not {f for f in called if f.rpartition(".")[2] in (
        "mono_lcm", "mono_divides", "mono_support", "mono_degree")}


def test_s_polynomial_shifts_packed_tails():
    spoly = next(node for node in _source("groebner").body
                 if isinstance(node, ast.FunctionDef) and node.name == "s_polynomial")
    called = {ast.unparse(node.func) for node in ast.walk(spoly) if isinstance(node, ast.Call)}
    assert not {f for f in called if f.rpartition(".")[2] in (
        "shift_scale", "mono_mul", "mono_div")}
    # the tails meet in one dict of raw payloads: the only differences
    # are the two packed shifts, and no polynomial is negated
    nodes = list(ast.walk(spoly))
    assert sorted(ast.unparse(node) for node in nodes
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Sub)
                  ) == ["lcm - plmf", "lcm - plmg"]
    assert not [node for node in nodes if isinstance(node, ast.UnaryOp)
                and isinstance(node.op, ast.USub)]


def _calls(name):
    def is_call(node):
        func = node.func if isinstance(node, ast.Call) else None
        return ((isinstance(func, ast.Name) and func.id == name)
                or (isinstance(func, ast.Attribute) and func.attr == name))

    return _sites(is_call)


def test_only_printed_bases_are_reduced():
    assert _calls("reduce_basis") == {("cli", "cmd_groebner"), ("groebner", "elimination_ideal"),
                                      ("algebraic", "invariant_field_generators")}


def test_field_command_runs_buchberger_over_the_base_field(monkeypatch, capsys):
    fields = []
    init = groebner.BuchbergerEngine.__init__

    def recording_init(self, ring, order):
        fields.append(ring.field)
        init(self, ring, order)

    monkeypatch.setattr(groebner.BuchbergerEngine, "__init__", recording_init)
    for name in ("gm_weights", "c2_swap_variety", "sl2_binary_quadratics"):
        assert main(["field", fixture_path(name), "--json"]) == 0
    capsys.readouterr()
    assert fields and not [f for f in fields if isinstance(f, RationalFunctionField)]


def test_gcd_runs_through_the_elimination_engine():
    assert ("ratfunc", "multivariate_gcd") in _calls("elimination_ideal")
    names = {node.name for node in _source("ratfunc").body if isinstance(node, ast.FunctionDef)}
    assert not names & {"_prem", "_content_pp", "_gcd_rec", "_only_var", "_univariate_gcd",
                        "_deg_in", "_coeff_in"}


def test_dade_runs_no_second_hsop_test():
    assert ("invariants", "dade_primary_invariants") not in _calls("is_hsop")
    assert ("invariants", "dade_primary_invariants") in _calls("is_phsop")


def _source(module):
    return ast.parse(Path(invar.__file__).with_name(f"{module}.py").read_text())


def _class(tree, name):
    return next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name)


def _signature(function):
    args = function.args
    return ([a.arg for a in args.posonlyargs + args.args], args.vararg, args.kwonlyargs,
            args.kwarg, args.defaults, args.kw_defaults)


def test_buchberger_engine_has_one_selection_path():
    tree = _source("groebner")
    methods = {node.name: node for node in _class(tree, "BuchbergerEngine").body
               if isinstance(node, ast.FunctionDef)}
    assert _signature(methods["add_generator"]) == (["self", "h", "sugar"], None, [], None, [], [])
    assert [a.arg for a in methods["extend"].args.args] == ["self", "degree_limit"]
    buchberger = next(node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "buchberger")
    assert [a.arg for a in buchberger.args.args] == ["gens", "order", "truncate"]

    # one pair heap, pushed to only by add_generator; the division
    # kernel's monomial heap is the only other heap
    def is_push(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("heappush", "heapify"))

    pushes = [node for node in ast.walk(tree) if is_push(node)]
    assert sorted(ast.unparse(node.args[0]) for node in pushes) == ["heap", "heap", "self._heap"]
    assert {function for module, function in _sites(is_push)
            if module == "groebner"} == {"add_generator", "_reduce_terms"}


def _field_arithmetic_reach(cls, todo=("_add", "_mul", "_neg", "_inv", "_is_zero")):
    """Names reached from a field class's arithmetic methods, or from the
    methods `todo` names; none of them may be `Fraction` or a univariate
    helper."""
    tree = _source("fields")
    functions = {node.name: node for node in tree.body + _class(tree, cls).body
                 if isinstance(node, ast.FunctionDef)}
    todo = list(todo)
    reached = set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(functions[name]):
            ref = (node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else None)
            assert ref != "Fraction" and not (ref or "").startswith("_u"), (name, ref)
            if ref in functions:
                todo.append(ref)
    return reached


def test_number_field_arithmetic_avoids_fractions_and_univariate_helpers():
    assert {"_product", "_normal"} <= _field_arithmetic_reach("NumberField")


def test_rational_arithmetic_avoids_fractions():
    assert "_lowest" in _field_arithmetic_reach("Rationals")


def test_number_fields_share_the_rational_pair_arithmetic():
    pair_arithmetic = {"_lowest", "_pair_mul", "_pair_add", "_pair_inv"}
    assert pair_arithmetic <= _field_arithmetic_reach("Rationals")
    assert pair_arithmetic <= _field_arithmetic_reach("NumberField")


def test_payload_forms_are_read_only_in_fields():
    def indexes_a_vector(node):
        return (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)
                and isinstance(node.value.value, ast.Attribute) and node.value.value.attr == "value")

    def tells_forms_apart(node):
        return isinstance(node, ast.Attribute) and node.attr == "__class__"

    assert {module for module, _ in _sites(indexes_a_vector)} <= {"fields"}
    assert {module for module, _ in _sites(tells_forms_apart)} == {"fields"}
    assert _calls("_integral") == {("polynomials", "integral_form"),
                                   ("polynomials", "integer_powers"), ("fields", "residue")}


def test_one_reduction_modulo_a_prime():
    def assigns_prime(node):
        return (isinstance(node, ast.Assign)
                and "MODULAR_PRIME" in {ast.unparse(target) for target in node.targets})

    def writes_prime(node):
        return ast.unparse(node) in ("2 ** 31 - 1", str(2**31 - 1))

    def inverts_modulo(node):
        return (isinstance(node, ast.Call) and ast.unparse(node.func) == "pow"
                and len(node.args) == 3 and ast.unparse(node.args[1]) == "-1")

    assert _sites(assigns_prime) == {("fields", None)}
    assert _sites(writes_prime) == {("fields", None)}
    assert _sites(inverts_modulo) == {("fields", "_inv"), ("fields", "_from_integral")}
    assert _calls("residue") == {("groups", "_power_is_identity_mod"),
                                 ("invariants", "_dimension_mod_prime")}


def test_fields_defines_no_univariate_helpers():
    names = {node.name for node in _source("fields").body if isinstance(node, ast.FunctionDef)}
    assert not names & {"_trim", "_uadd", "_umul"}


def test_minimal_polynomials_are_checked_on_integers():
    reached = _field_arithmetic_reach("NumberField", ["_warn_if_reducible"])
    assert {"_least_factor_degree", "_divisors", "_is_square"} <= reached
    names = {node.name for node in _source("fields").body if isinstance(node, ast.FunctionDef)}
    assert not names & {"_is_square_fraction", "_rational_roots", "_quartic_has_quadratic_factor"}


def test_text_has_one_parser_entry_and_one_printer():
    assert _calls("parse_expression") == {("polynomials", "parse")}
    printer = next(node for node in _class(_source("fields"), "NumberField").body
                   if isinstance(node, ast.FunctionDef) and node.name == "_format")
    nodes = list(ast.walk(printer))
    assert "format" in {node.func.attr for node in nodes
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not [node for node in nodes if isinstance(node, (ast.For, ast.While))]


def test_parsing_defines_no_value_type():
    assert [node.name for node in _source("parsing").body
            if isinstance(node, ast.ClassDef)] == ["_Parser"]


def test_degree_bound_is_read_only_by_polynomials_and_groebner():
    def reads_bound(node):
        return ((isinstance(node, ast.Name) and node.id == "DEGREE_BOUND"
                 and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "DEGREE_BOUND"))

    assert {module for module, _ in _sites(reads_bound)} == {"polynomials", "groebner"}


def test_molien_series_builds_no_polynomial_ring():
    def is_ring(node):
        return isinstance(node, ast.Name) and node.id == "PolynomialRing"

    assert ("groups", "molien_series") not in _sites(is_ring)


def test_monomial_table_computes_only_through_its_callable():
    table = next(node for node in _source("polynomials").body
                 if isinstance(node, ast.FunctionDef) and node.name == "monomial_image")
    assert _signature(table) == (["table", "a", "times"], None, [], None, [], [])
    nodes = list(ast.walk(table))
    assert not [node for node in nodes if isinstance(node, (ast.BinOp, ast.AugAssign))]
    # products go through `times` only; the rest is exponent bookkeeping
    called = {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)}
    assert called == {"times", "monomial_image", "_unit", "mono_div", "max", "compress", "count",
                      "len", "any", "reversed", "steps.append"}
    assert _calls("monomial_image") == {("polynomials", "evaluate"), ("polynomials", "substitute"),
                                        ("polynomials", "monomial_image"), ("groups", "reynolds")}


def test_integral_evaluation_runs_on_ints():
    evaluation = next(node for node in _source("polynomials").body
                      if isinstance(node, ast.FunctionDef) and node.name == "evaluate_integral")
    (term_loop,) = [node for node in ast.walk(evaluation) if isinstance(node, ast.GeneratorExp)]
    # a term is int products and a sum: no payload method, no attribute at all
    nodes = list(ast.walk(term_loop))
    assert {ast.unparse(node.func) for node in nodes if isinstance(node, ast.Call)} == {"prod",
                                                                                       "map"}
    assert not [node for node in nodes if isinstance(node, ast.Attribute)]
    # the one field call settles the summed components
    assert [ast.unparse(node.func) for node in ast.walk(evaluation) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)] == ["field._from_integral"]
    assert _calls("evaluate_integral") == {("invariants", "values")}


def test_groups_defines_no_monomial_image_helper():
    def is_monomial_op(node):
        return isinstance(node, ast.Name) and node.id.startswith(("mono_", "_unit"))

    assert "groups" not in {module for module, _ in _sites(is_monomial_op)}
    names = {node.name for node in _source("groups").body if isinstance(node, ast.FunctionDef)}
    assert not names & {"_image", "_sum_terms", "_power_sum", "monomial_image", "image_table"}


def test_echelon_computes_only_through_payload_methods():
    kernel = next(node for node in _source("linalg").body
                  if isinstance(node, ast.FunctionDef) and node.name == "_echelon")
    nodes = list(ast.walk(kernel))
    assert "Scalar" not in {node.id for node in nodes if isinstance(node, ast.Name)}
    assert {node.attr for node in nodes if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "field"} == {
        "_mul", "_add", "_neg", "_inv", "_is_zero"}
    # the only operators step the pivot row index
    assert sorted(ast.unparse(node) for node in nodes
                  if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.AugAssign))) == [
        "r + 1", "r += 1"]


def test_invariant_solvers_pass_sparse_equations():
    def is_zero(node):
        return ((isinstance(node, ast.Name) and node.id == "zero")
                or (isinstance(node, ast.Attribute) and node.attr == "zero"))

    solver = ("invariants", "fixed_forms")
    callers = {("algebraic", "algebraic_invariant_basis"), ("invariants", "invariant_basis")}
    equation_builders = {("algebraic", "equations"), ("invariants", "equations")}
    assert not _sites(is_zero) & (callers | equation_builders | {solver})
    assert _calls("nullspace") == {solver}
    assert _calls("fixed_forms") == callers


def _cli_sites(matches):
    return {function for module, function in _sites(matches) if module == "cli"}


def test_cli_formats_polynomials_only_in_the_converter():
    def is_format(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "format")

    assert _cli_sites(is_format) == {"_jsonable"}


def test_cli_writes_reports_only_in_main():
    def is_write(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return ((isinstance(func, ast.Name) and func.id == "print")
                or (isinstance(func, ast.Attribute) and func.attr == "write"))

    assert _cli_sites(is_write) == {"main"}


def test_cli_commands_take_only_the_parsed_arguments():
    tree = ast.parse(Path(invar.__file__).with_name("cli.py").read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert len(commands) == 7
    for node in commands:
        assert [a.arg for a in node.args.args] == ["args"], node.name


def _is_list(node):
    """A list display, comprehension or concatenation, or `list(...)`."""
    if isinstance(node, ast.BinOp):
        return _is_list(node.left) or _is_list(node.right)
    return (isinstance(node, (ast.List, ast.ListComp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "list"))


def test_rings_change_only_through_transport_by_name():
    parameters = inspect.signature(transport).parameters
    assert list(parameters) == ["p", "target", "rename"]
    assert parameters["rename"].default is None
    # a map passed by name, such as `lift` or `self._lift`, counts by
    # every value bound to that name anywhere in the source
    bound = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.setdefault(ast.unparse(target), []).append(node.value)

    def passes_a_list(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "transport"):
            return False
        maps = node.args[2:] + [keyword.value for keyword in node.keywords]
        return any(_is_list(value) for m in maps for value in [m, *bound.get(ast.unparse(m), [])])

    assert _calls("transport")
    assert not _sites(passes_a_list)


def _function_names(function):
    """(stored, loaded) names of a function: stores outside its nested
    functions, lambdas and classes, loads anywhere inside it, as a
    closure reads its outer locals."""
    stored, loaded = set(), set()

    def visit(node, own):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load):
                    loaded.add(child.id)
                elif own:
                    stored.add(child.id)
            visit(child, own and not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)))

    visit(function, True)
    return stored, loaded


def test_src_has_no_unused_imports_or_locals():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            # the package's __init__ imports only to re-export
            if (isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "__init__.py"
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path.stem}: import {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in loads]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stored, loaded = _function_names(node)
                unused += [f"{path.stem}.{node.name}: {name}" for name in sorted(stored - loaded)
                           if not name.startswith("_")]
    assert unused == []
