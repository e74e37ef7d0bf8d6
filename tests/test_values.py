"""Value semantics of the package's immutable types: the DSL's syntax-tree nodes (named
tuples over one _Node base), GridSpec, VerificationReport, ThreeTermRelation and
CatalogEntry (named tuples), and RecurrenceParams and Sequence (slotted classes).
Each compares by its fields, hashes consistently with that, keeps its repr, and
refuses assignment."""

import copy
import pickle
from fractions import Fraction

import pytest

from horadam import (
    ParameterError,
    RecurrenceParams,
    Sequence,
    ThreeTermRelation,
    UsageError,
    catalog_entry,
    get_named,
    make_grid,
    make_sequence,
    parse_identity,
    term,
    verify_over_grid,
)
from horadam import dsl
from horadam.dsl import Add, IntLit, Mul, Neg, SeqTerm, Sub, Var


class TestNodes:
    def test_nodes_of_two_classes_with_equal_fields_are_unequal(self):
        x, y = Var("x"), Var("y")
        nodes = [Add(x, y), Sub(x, y), Mul(x, y)]
        for i, left in enumerate(nodes):
            for j, right in enumerate(nodes):
                assert (left == right) is (i == j)
                assert (left != right) is (i != j)
        assert len(set(nodes)) == 3
        assert Var("x") != ("x", (1, 1)) and Neg(IntLit(1)) != IntLit(1)

    def test_sum_difference_and_product_keep_their_own_reports(self):
        # One grid, one process: a tree of one class must never be served another's code
        dsl._compiled.cache_clear()
        grid = make_grid({"m": (-3, 3), "n": (-3, 3)})
        ops = {
            "F[n] + F[m] = 0": lambda x, y: x + y,
            "F[n] - F[m] = 0": lambda x, y: x - y,
            "F[n]*F[m] = 0": lambda x, y: x * y,
        }
        fib = get_named("fibonacci")
        for text, fn in ops.items():
            report = verify_over_grid(parse_identity(text), grid)
            expected = [
                ({"m": m, "n": n}, fn(term(fib, n), term(fib, m)))
                for m in range(-3, 4) for n in range(-3, 4) if fn(term(fib, n), term(fib, m))
            ]
            assert report.identity == text
            assert [(b, lhs) for b, lhs, _ in report.counterexamples] == expected, text

    def test_pos_takes_no_part_in_equality_or_hashing(self):
        flat = parse_identity("F[n] + F[m] = 0")
        spread = parse_identity("\n\n   F[n]   +\n F[m] =\n 0")
        assert flat.pos != spread.pos and flat.rhs.pos != spread.rhs.pos
        assert flat == spread and not flat != spread
        assert hash(flat) == hash(spread)
        moved = Var("x", pos=(4, 7))
        assert moved.pos == (4, 7) and Var("x").pos == (1, 1)
        assert moved == Var("x") and not moved != Var("x") and hash(moved) == hash(Var("x"))
        assert len({moved, Var("x")}) == 1

    def test_repr_leaves_out_pos(self):
        node = Add(SeqTerm("F", Var("n", pos=(1, 3))), IntLit(1, pos=(1, 8)), pos=(1, 1))
        assert repr(node) == "Add(left=SeqTerm(seq='F', index=Var(name='n')), right=IntLit(value=1))"

    def test_nodes_survive_copy_and_pickle(self):
        tree = parse_identity("sum(j,0,k,F[j]) = F[k+2] - 1")
        for clone in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert clone == tree and type(clone.lhs) is dsl.Sum and clone.lhs.pos == tree.lhs.pos


class TestSequenceValues:
    def test_repr_is_the_field_by_field_text(self):
        assert repr(get_named("fibonacci")) == (
            "Sequence(params=RecurrenceParams(p=Fraction(1, 1), q=Fraction(1, 1)),"
            " g0=Fraction(0, 1), g1=Fraction(1, 1), name='fibonacci')"
        )
        assert repr(RecurrenceParams("1/2", -3)) == "RecurrenceParams(p=Fraction(1, 2), q=Fraction(-3, 1))"

    def test_fields_are_coerced_and_checked(self):
        params = RecurrenceParams("1/2", 3)
        assert (params.p, params.q) == (Fraction(1, 2), Fraction(3))
        assert type(params.p) is Fraction and type(params.q) is Fraction
        seq = Sequence(params, 0, "2/3", name="s")
        assert (seq.g0, seq.g1, seq.name) == (Fraction(0), Fraction(2, 3), "s")
        assert type(seq.g0) is Fraction and type(seq.g1) is Fraction
        with pytest.raises(ParameterError):
            RecurrenceParams(1, 0)
        with pytest.raises(ParameterError):
            Sequence(params, 0, Fraction(0))

    def test_sequences_compare_and_hash_by_every_field_with_name(self):
        named = get_named("fibonacci")
        assert named == make_sequence(1, 1, 0, 1, "fibonacci")
        assert hash(named) == hash(make_sequence(1, 1, 0, 1, "fibonacci"))
        assert named != make_sequence(1, 1, 0, 1) and not named == make_sequence(1, 1, 0, 1)
        assert named != make_sequence(1, 1, 0, 2, "fibonacci")
        assert named != make_sequence(1, 2, 0, 1, "fibonacci")
        assert named != (named.params, named.g0, named.g1, named.name)

    def test_params_compare_and_hash_by_p_and_q(self):
        assert RecurrenceParams(2, 3) == RecurrenceParams(Fraction(2), "3")
        assert hash(RecurrenceParams(2, 3)) == hash(RecurrenceParams(Fraction(2), "3"))
        assert RecurrenceParams(2, 3) != RecurrenceParams(2, 4) != RecurrenceParams(3, 4)
        # every hash differs where only q, or only p, differs
        assert len({hash(RecurrenceParams(1, q)) for q in range(1, 20)}) == 19
        assert len({hash(RecurrenceParams(p, 1)) for p in range(1, 20)}) == 19

    def test_copy_and_pickle_keep_the_value(self):
        seq = make_sequence("3/2", "2/3", 1, -2, "r")
        term(seq, 5)  # fills the params' cached engine
        for clone in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert clone == seq and term(clone, -7) == term(seq, -7)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: IntLit(3), "value"),
        (lambda: parse_identity("F[n] = F[n]"), "lhs"),
        (lambda: get_named("lucas"), "g0"),
        (lambda: get_named("lucas"), "name"),
        (lambda: RecurrenceParams(1, 1), "q"),
        (lambda: ThreeTermRelation(1, 1, 1, 2), "f1"),
        (lambda: make_grid({"n": (0, 3)}), "text"),
        (lambda: verify_over_grid(parse_identity("F[n] = F[n]"), make_grid({"n": (0, 1)})), "identity"),
        (lambda: catalog_entry("fib.catalan"), "identity"),
    ],
    ids=["node", "identity-ast", "sequence", "sequence-name", "params", "relation", "grid",
         "report", "catalog-entry"],
)
def test_assigning_a_field_raises(make, field):
    value = make()
    before = copy.copy(value)
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == before


class TestRelationValues:
    def test_coefficients_are_coerced_to_fractions(self):
        rel = ThreeTermRelation(2, "-1/3", 1, 2)
        assert (rel.f1, rel.f2, rel.a, rel.b) == (Fraction(2), Fraction(-1, 3), 1, 2)
        assert type(rel.f1) is Fraction and type(rel.f2) is Fraction

    def test_checks_run_on_every_construction(self):
        with pytest.raises(UsageError, match="nonzero"):
            ThreeTermRelation(1, "0/5", 1, 2)
        with pytest.raises(UsageError, match="differ"):
            ThreeTermRelation(1, 1, 3, 3)
        rel = ThreeTermRelation(1, 1, 1, 2)
        assert pickle.loads(pickle.dumps(rel)) == rel and copy.copy(rel) == rel
