"""Parser and evaluator for the command line expression language."""

import warnings
from fractions import Fraction

import pytest

from symf.errors import ExprError
from symf.expr import _Token, evaluate, evaluate_text, parse, pretty
from symf.partitions import Partition
from symf.plethysm import plethysm
from symf.symfunc import e, h, p, s


class TestAtoms:
    def test_basis_forms(self):
        assert evaluate_text("h2") == h(2)
        assert evaluate_text("h[2]") == h(2)
        assert evaluate_text("s[2,1]") == s(2, 1)
        assert evaluate_text("p[1,1,1]") == p(1, 1, 1)
        assert evaluate_text("e3") == e(3)
        assert evaluate_text("m[2,2]") == evaluate_text("m[2, 2]")

    def test_multidigit_single_token(self):
        # h12 is h with the single part 12, not h1 * h2
        assert evaluate_text("h12") == h(12)
        assert evaluate_text("h12") != h(1) * h(2)

    def test_empty_partition_is_the_unit(self):
        one = evaluate_text("h[]")
        assert one == evaluate_text("h0")
        assert one == evaluate_text("h2 - h2 + h[]")
        assert evaluate_text("h[] * s[2,1]") == s(2, 1)

    def test_numbers(self):
        assert evaluate_text("3") == Fraction(3)
        assert evaluate_text("2 + 3 * 4") == Fraction(14)
        assert evaluate_text("-2") == Fraction(-2)

    def test_partition_literal(self):
        assert evaluate_text("[2,1]") == Partition((2, 1))
        assert evaluate_text("[]") == Partition()


class TestArithmetic:
    def test_precedence(self):
        assert evaluate_text("h1 + h1*h1") == h(1) + h(1, 1)
        assert evaluate_text("(h1 + h1)*h1") == 2 * h(1, 1)

    def test_scalars_mix_with_functions(self):
        assert evaluate_text("2*h2 - h[1,1]") == 2 * h(2) - h(1, 1)
        assert evaluate_text("1 + h1") == 1 + h(1)

    def test_leading_sign(self):
        assert evaluate_text("-h2 + h2").is_zero()
        assert evaluate_text("+h2") == h(2)

    def test_subtraction_is_left_associative(self):
        assert evaluate_text("h3 - h3 - h3") == -h(3)


class TestPlethysm:
    def test_bracket_after_atom_is_plethysm(self):
        assert evaluate_text("h2[h2]") == plethysm(h(2), h(2))
        assert evaluate_text("h[2][h[2]]") == plethysm(h(2), h(2))

    def test_chained(self):
        inner = plethysm(h(2), h(2))
        assert evaluate_text("h2[h2][h2]") == plethysm(inner, h(2))

    def test_compound_operands(self):
        assert evaluate_text("(h2 + h3)[p2]") == plethysm(h(2) + h(3), p(2))
        assert evaluate_text("e2[h1 + h2]") == plethysm(e(2), h(1) + h(2))

    def test_whitespace_between_letter_and_bracket(self):
        # the digit form must be adjacent, but a bracketed partition
        # may be separated from its basis letter
        assert evaluate_text("h [2]") == h(2)
        # once the atom is complete a bracket means plethysm
        assert evaluate_text("h2 [h2]") == plethysm(h(2), h(2))

    def test_constant_outer(self):
        assert evaluate_text("2[h2]") == Fraction(2) * evaluate_text("h[]")


class TestFunctions:
    def test_scalar(self):
        assert evaluate_text("scalar(h2[h2], h[2,2])") == Fraction(2)
        assert evaluate_text("scalar(s[2,1], s[2,1])") == Fraction(1)

    def test_kron(self):
        assert evaluate_text("kron(p2, p2)") == 2 * p(2)

    def test_dim(self):
        assert evaluate_text("dim(s[2,1])") == Fraction(2)

    def test_ones(self):
        assert evaluate_text("ones(h2)") == Fraction(1)
        assert evaluate_text("ones(s[2,1])") == Fraction(0)

    def test_coeff(self):
        assert evaluate_text("coeff(h2[h2], [2,2])") == Fraction(2)
        assert evaluate_text("coeff(s[2,1], [1,1,1])") == Fraction(2)
        assert evaluate_text("coeff(h2, [2])") == Fraction(1)


class TestPretty:
    CASES = [
        "h[2]",
        "s[2,1]",
        "h[2] + h[1,1]",
        "2 * h[2]",
        "(h[2] + h[3])[p[2]]",
        "h[2][h[2]][h[2]]",
        "scalar(h[2], h[2])",
        "coeff(h[2][h[2]], [2,2])",
        "h[2] * (h[3] * h[4])",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        tree = parse(text)
        again = parse(pretty(tree))
        assert again == tree
        assert evaluate(again) == evaluate(tree)

    def test_parenthesizes_only_when_needed(self):
        assert pretty(parse("h2 + h3*h1")) == "h[2] + h[3] * h[1]"
        assert pretty(parse("(h2 + h3)*h1")) == "(h[2] + h[3]) * h[1]"

    @pytest.mark.parametrize("text", [
        "+".join(["h1"] * 3000), "-".join(["h1"] * 3000),
        "*".join(["h1"] * 3000), "h1" + "[h1]" * 3000],
        ids=["sum", "difference", "product", "plethysm"])
    def test_long_chains(self, text):
        tree = parse(text)
        once = pretty(tree)
        again = parse(once)
        assert pretty(again) == once
        # equality, hashing and printing walk the tree without recursing
        assert again == tree and not again != tree
        assert hash(again) == hash(tree)
        assert repr(again) == repr(tree)
        assert repr(tree).count("BasisAtom(basis='h', parts=Partition([1]))") \
            == text.count("h1")
        # the first leaf is the deepest node
        other = parse(text.replace("h1", "h2", 1))
        assert other != tree and not other == tree
        assert hash(other) != hash(tree)

    @pytest.mark.parametrize("walk", [evaluate, pretty])
    def test_only_expression_nodes_are_walked(self, walk):
        for root in (5, None, Partition((1,)), (parse("h1"),),
                     _Token("num", 1, 0)):
            with pytest.raises(TypeError, match="not an expression node"):
                walk(root)


class TestDiagnostics:
    def test_out_of_order_partition_sorted_with_warning(self):
        with pytest.warns(UserWarning, match="not weakly decreasing"):
            value = evaluate_text("s[1,2]")
        assert value == s(2, 1)

    def test_sorted_partition_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_text("s[2,1]")

    def test_unknown_letter(self):
        with pytest.raises(ExprError, match="column 1:"):
            evaluate_text("q2")
        try:
            evaluate_text("q2")
        except ExprError as exc:
            assert exc.position == 0

    def test_positions_are_one_based_columns(self):
        with pytest.raises(ExprError, match="column 4:"):
            evaluate_text("h2 @")

    def test_bare_basis_letter(self):
        with pytest.raises(ExprError, match="needs a partition"):
            evaluate_text("h")

    def test_dangling_operator(self):
        with pytest.raises(ExprError, match="expected a value"):
            evaluate_text("h2 +")

    def test_unclosed_partition(self):
        with pytest.raises(ExprError):
            evaluate_text("s[2,1")

    def test_unclosed_paren(self):
        with pytest.raises(ExprError):
            evaluate_text("(h2")

    def test_trailing_input(self):
        with pytest.raises(ExprError, match="trailing input"):
            evaluate_text("h2)")

    def test_nonpositive_partition_entry(self):
        with pytest.raises(ExprError, match="positive"):
            evaluate_text("s[0]")

    def test_wrong_arity(self):
        with pytest.raises(ExprError, match="takes 2 arguments"):
            evaluate_text("scalar(h2)")
        with pytest.raises(ExprError, match="takes 1 argument"):
            evaluate_text("dim(h2, h2)")

    def test_coeff_needs_partition_literal(self):
        with pytest.raises(ExprError, match="partition literal"):
            evaluate_text("coeff(h2, h2)")
        # the partition is checked before the function
        with pytest.raises(ExprError, match="^the second argument of coeff "
                           "must be a partition literal like \\[2,1\\]$"):
            evaluate_text("coeff([2], h2)")
        with pytest.raises(ExprError, match="^coeff argument must be a "
                           "symmetric function, not a partition$"):
            evaluate_text("coeff([2], [2])")

    def test_partition_where_function_expected(self):
        with pytest.raises(ExprError, match="not a partition"):
            evaluate_text("ones([2,1])")

    def test_partitions_do_not_add(self):
        with pytest.raises(ExprError, match="do not support"):
            evaluate_text("[2,1] + h2")
