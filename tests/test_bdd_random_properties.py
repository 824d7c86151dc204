"""Seeded property-based tests of the BDD engine.

Random Boolean expression trees are generated from a fixed-seed RNG and
elaborated twice: once into ROBDDs through :class:`BDDManager` and once
into plain Python truth-table evaluators.  Every algebraic law the
verification flow relies on — the ite/apply identities, quantification
as cofactor disjunction/conjunction, composition as substitution — is
then checked on hundreds of random cases, and canonicity is pinned down
both ways: semantically equal functions are the *same node* (node
identity ⇔ ``equivalent``), and semantically different functions never
are.

All randomness flows from ``random.Random(SEED)``; the suite is fully
deterministic.
"""

import itertools
import random

import pytest

from repro.bdd import BDDManager, BDDOrderError

SEED = 20260729
#: Cases per operator family (>= 200 each per the campaign-engine issue).
CASES = 200
VARIABLES = ("a", "b", "c", "d", "e", "f")


def random_expression(rng, depth, names):
    """A random expression tree as (bdd-builder, evaluator) recipe.

    Returns a pair of functions ``(build(manager), evaluate(env))`` so a
    single tree can be elaborated into a BDD and into a reference
    truth-table evaluator without re-walking shared state.
    """
    if depth <= 0 or rng.random() < 0.2:
        choice = rng.random()
        if choice < 0.1:
            value = rng.random() < 0.5
            return (lambda m: m.constant(value)), (lambda env: value)
        name = rng.choice(names)
        if choice < 0.55:
            return (lambda m: m.var(name)), (lambda env: env[name])
        return (lambda m: m.nvar(name)), (lambda env: not env[name])
    operator = rng.choice(("and", "or", "xor", "not", "implies", "xnor", "ite"))
    left_build, left_eval = random_expression(rng, depth - 1, names)
    if operator == "not":
        return (
            lambda m: m.apply_not(left_build(m)),
            lambda env: not left_eval(env),
        )
    right_build, right_eval = random_expression(rng, depth - 1, names)
    if operator == "ite":
        else_build, else_eval = random_expression(rng, depth - 1, names)
        return (
            lambda m: m.ite(left_build(m), right_build(m), else_build(m)),
            lambda env: right_eval(env) if left_eval(env) else else_eval(env),
        )
    table = {
        "and": (lambda m, f, g: m.apply_and(f, g), lambda x, y: x and y),
        "or": (lambda m, f, g: m.apply_or(f, g), lambda x, y: x or y),
        "xor": (lambda m, f, g: m.apply_xor(f, g), lambda x, y: x != y),
        "xnor": (lambda m, f, g: m.apply_xnor(f, g), lambda x, y: x == y),
        "implies": (lambda m, f, g: m.apply_implies(f, g), lambda x, y: (not x) or y),
    }
    bdd_op, bool_op = table[operator]
    return (
        lambda m: bdd_op(m, left_build(m), right_build(m)),
        lambda env: bool(bool_op(left_eval(env), right_eval(env))),
    )


def assignments(names):
    """Every assignment over ``names`` (the brute-force reference)."""
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def assert_matches(manager, node, evaluator, names, context=""):
    """The BDD agrees with the reference evaluator on every assignment."""
    for env in assignments(names):
        assert manager.evaluate(node, env) == evaluator(env), (context, env)


@pytest.fixture(scope="module")
def manager():
    """One manager for the whole module: canonicity must survive reuse."""
    return BDDManager(variables=VARIABLES)


def make_cases(count, depth=4):
    rng = random.Random(SEED)
    return [random_expression(rng, depth, VARIABLES) for _ in range(count)]


class TestEvaluationAgreesWithTruthTables:
    def test_random_trees_evaluate_correctly(self, manager):
        for index, (build, evaluate) in enumerate(make_cases(CASES)):
            node = build(manager)
            assert_matches(manager, node, evaluate, VARIABLES, f"case {index}")


class TestCanonicity:
    """Node identity if and only if semantic equivalence."""

    def test_equal_functions_are_the_same_node(self, manager):
        rng = random.Random(SEED + 1)
        for index in range(CASES):
            build, evaluate = random_expression(rng, 4, VARIABLES)
            first = build(manager)
            second = build(manager)
            assert first is second, f"case {index}: rebuild produced a new node"
            assert manager.equivalent(first, second)

    def test_semantically_equal_but_syntactically_different(self, manager):
        rng = random.Random(SEED + 2)
        for index in range(CASES):
            build, _ = random_expression(rng, 3, VARIABLES)
            f = build(manager)
            # f == ~~f == f | f == f & f == ite(f, 1, 0).
            assert manager.apply_not(manager.apply_not(f)) is f
            assert manager.apply_or(f, f) is f
            assert manager.apply_and(f, f) is f
            assert manager.ite(f, manager.one, manager.zero) is f

    def test_different_functions_are_different_nodes(self, manager):
        rng = random.Random(SEED + 3)
        checked = 0
        while checked < CASES:
            build_f, eval_f = random_expression(rng, 3, VARIABLES)
            build_g, eval_g = random_expression(rng, 3, VARIABLES)
            same = all(eval_f(env) == eval_g(env) for env in assignments(VARIABLES))
            f, g = build_f(manager), build_g(manager)
            if same:
                assert f is g
            else:
                assert f is not g
                assert not manager.equivalent(f, g)
            checked += 1


class TestIteIdentities:
    def test_ite_is_mux(self, manager):
        """ite(f, g, h) == (f & g) | (~f & h) as the same canonical node."""
        rng = random.Random(SEED + 4)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            h = random_expression(rng, 3, VARIABLES)[0](manager)
            via_ite = manager.ite(f, g, h)
            via_mux = manager.apply_or(
                manager.apply_and(f, g),
                manager.apply_and(manager.apply_not(f), h),
            )
            assert via_ite is via_mux

    def test_ite_terminal_cases(self, manager):
        rng = random.Random(SEED + 5)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            assert manager.ite(manager.one, f, g) is f
            assert manager.ite(manager.zero, f, g) is g
            assert manager.ite(f, g, g) is g
            assert manager.ite(f, manager.one, manager.zero) is f
            assert manager.ite(f, manager.zero, manager.one) is manager.apply_not(f)


class TestApplyAlgebra:
    def test_de_morgan_and_duality(self, manager):
        rng = random.Random(SEED + 6)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            assert manager.apply_not(manager.apply_and(f, g)) is manager.apply_or(
                manager.apply_not(f), manager.apply_not(g)
            )
            assert manager.apply_nand(f, g) is manager.apply_not(manager.apply_and(f, g))
            assert manager.apply_nor(f, g) is manager.apply_not(manager.apply_or(f, g))

    def test_commutativity_and_absorption(self, manager):
        rng = random.Random(SEED + 7)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            assert manager.apply_and(f, g) is manager.apply_and(g, f)
            assert manager.apply_or(f, g) is manager.apply_or(g, f)
            assert manager.apply_xor(f, g) is manager.apply_xor(g, f)
            assert manager.apply_or(f, manager.apply_and(f, g)) is f
            assert manager.apply_and(f, manager.apply_or(f, g)) is f

    def test_xor_xnor_complement_and_excluded_middle(self, manager):
        rng = random.Random(SEED + 8)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            assert manager.apply_xnor(f, g) is manager.apply_not(manager.apply_xor(f, g))
            assert manager.apply_xor(f, f) is manager.zero
            assert manager.apply_xnor(f, f) is manager.one
            assert manager.apply_or(f, manager.apply_not(f)) is manager.one
            assert manager.apply_and(f, manager.apply_not(f)) is manager.zero

    def test_implication_as_disjunction(self, manager):
        rng = random.Random(SEED + 9)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            assert manager.apply_implies(f, g) is manager.apply_or(manager.apply_not(f), g)


class TestQuantification:
    def test_exists_is_cofactor_disjunction(self, manager):
        rng = random.Random(SEED + 10)
        for _ in range(CASES):
            f = random_expression(rng, 4, VARIABLES)[0](manager)
            name = rng.choice(VARIABLES)
            smoothed = manager.exists([name], f)
            expected = manager.apply_or(
                manager.cofactor(f, name, True), manager.cofactor(f, name, False)
            )
            assert smoothed is expected
            assert name not in manager.support(smoothed)

    def test_forall_is_cofactor_conjunction(self, manager):
        rng = random.Random(SEED + 11)
        for _ in range(CASES):
            f = random_expression(rng, 4, VARIABLES)[0](manager)
            name = rng.choice(VARIABLES)
            universal = manager.forall([name], f)
            expected = manager.apply_and(
                manager.cofactor(f, name, True), manager.cofactor(f, name, False)
            )
            assert universal is expected

    def test_forall_implies_exists_and_duality(self, manager):
        rng = random.Random(SEED + 12)
        for _ in range(CASES):
            f = random_expression(rng, 4, VARIABLES)[0](manager)
            names = rng.sample(VARIABLES, rng.randrange(1, 4))
            forall = manager.forall(names, f)
            exists = manager.exists(names, f)
            assert manager.apply_implies(forall, exists) is manager.one
            # Quantifier duality: forall x f == ~exists x ~f.
            dual = manager.apply_not(manager.exists(names, manager.apply_not(f)))
            assert forall is dual

    def test_and_exists_equals_exists_of_conjunction(self, manager):
        rng = random.Random(SEED + 13)
        for _ in range(CASES):
            f = random_expression(rng, 3, VARIABLES)[0](manager)
            g = random_expression(rng, 3, VARIABLES)[0](manager)
            names = rng.sample(VARIABLES, rng.randrange(0, 4))
            fused = manager.and_exists(names, f, g)
            staged = manager.exists(names, manager.apply_and(f, g))
            assert fused is staged


class TestComposition:
    def test_compose_matches_substituted_evaluation(self, manager):
        rng = random.Random(SEED + 14)
        for index in range(CASES):
            build_f, eval_f = random_expression(rng, 3, VARIABLES)
            target = rng.choice(VARIABLES)
            build_g, eval_g = random_expression(rng, 3, VARIABLES)
            f = build_f(manager)
            g = build_g(manager)
            composed = manager.compose(f, {target: g})

            def substituted(env, eval_f=eval_f, eval_g=eval_g, target=target):
                inner = dict(env)
                inner[target] = eval_g(env)
                return eval_f(inner)

            assert_matches(manager, composed, substituted, VARIABLES, f"case {index}")

    def test_compose_with_variable_is_rename(self, manager):
        rng = random.Random(SEED + 15)
        for _ in range(CASES):
            build_f, _ = random_expression(rng, 3, VARIABLES[:3])
            f = build_f(manager)
            renamed = manager.rename(f, {"a": "d", "b": "e", "c": "f"})
            back = manager.rename(renamed, {"d": "a", "e": "b", "f": "c"})
            assert back is f

    def test_restrict_agrees_with_compose_of_constants(self, manager):
        rng = random.Random(SEED + 16)
        for _ in range(CASES):
            f = random_expression(rng, 4, VARIABLES)[0](manager)
            names = rng.sample(VARIABLES, rng.randrange(1, 4))
            assignment = {name: rng.random() < 0.5 for name in names}
            restricted = manager.restrict(f, assignment)
            composed = manager.compose(
                f, {name: manager.constant(value) for name, value in assignment.items()}
            )
            assert restricted is composed


class TestCountingQueries:
    def test_sat_count_matches_brute_force(self, manager):
        rng = random.Random(SEED + 17)
        for index in range(CASES):
            build, evaluate = random_expression(rng, 4, VARIABLES)
            node = build(manager)
            expected = sum(1 for env in assignments(VARIABLES) if evaluate(env))
            assert manager.sat_count(node, VARIABLES) == expected, f"case {index}"

    def test_pick_assignment_satisfies(self, manager):
        rng = random.Random(SEED + 18)
        for _ in range(CASES):
            node = random_expression(rng, 4, VARIABLES)[0](manager)
            witness = manager.pick_assignment(node)
            if node is manager.zero:
                assert witness is None
            else:
                env = {name: witness.get(name, False) for name in VARIABLES}
                assert manager.evaluate(node, env) is True


#: Up to eight variables for the ordered-pick property (8! orders).
ORDER_VARIABLES = ("a", "b", "c", "d", "e", "f", "g", "h")


class TestOrderedPick:
    """``pick_assignment(f, order)`` is the pick of a manager declared in ``order``."""

    def test_matches_a_fresh_manager_declared_in_the_order(self):
        rng = random.Random(SEED + 19)
        for index in range(CASES):
            build, _ = random_expression(rng, 5, ORDER_VARIABLES)
            computing_order = list(ORDER_VARIABLES)
            rng.shuffle(computing_order)
            order = list(ORDER_VARIABLES)
            rng.shuffle(order)
            computing = BDDManager(variables=computing_order)
            reference = BDDManager(variables=order)
            expected = reference.pick_assignment(build(reference))
            actual = computing.pick_assignment(build(computing), order)
            assert actual == expected, f"case {index}"
            if expected is not None:
                # Same decision sequence, not just the same set of literals.
                assert list(actual) == list(expected), f"case {index}"

    def test_constants(self):
        manager = BDDManager(variables=ORDER_VARIABLES)
        assert manager.pick_assignment(manager.zero, ORDER_VARIABLES) is None
        assert manager.pick_assignment(manager.one, ORDER_VARIABLES) == {}
        assert manager.pick_assignment(manager.one, ()) == {}

    def test_order_may_name_more_than_the_support(self):
        manager = BDDManager(variables=("a", "b"))
        f = manager.apply_and(manager.var("b"), manager.nvar("a"))
        assert manager.pick_assignment(f, ["zz", "b", "c", "a"]) == {"b": True, "a": False}

    def test_uncovered_support_raises(self):
        manager = BDDManager(variables=("a", "b"))
        f = manager.apply_or(manager.var("a"), manager.var("b"))
        with pytest.raises(BDDOrderError, match="'b'"):
            manager.pick_assignment(f, ["a"])
