"""Lexer tests."""

import pytest

from repro.sqlir.tokens import (
    EOF,
    IDENT,
    OP,
    PARAM,
    tokenize,
)
from repro.util.errors import ParseError


def kinds(sql):
    return [t.kind for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasicTokens:
    def test_keywords_case_insensitive(self):
        assert values("select FROM Where") == ["SELECT", "FROM", "WHERE"]

    def test_identifier_keeps_case(self):
        tokens = tokenize("Attendance")
        assert tokens[0].kind == IDENT
        assert tokens[0].value == "Attendance"

    def test_integer_and_float(self):
        assert values("42 3.5") == [42, 3.5]
        assert isinstance(tokenize("42")[0].value, int)
        assert isinstance(tokenize("3.5")[0].value, float)

    def test_string_with_escaped_quote(self):
        assert values("'it''s'") == ["it's"]

    def test_empty_string_literal(self):
        assert values("''") == [""]

    def test_eof_token_present(self):
        assert kinds("SELECT")[-1] == EOF


class TestOperators:
    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">=", "<>"])
    def test_comparison_operators(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].kind == OP
        assert tokens[1].value == op

    def test_bang_equals_normalized(self):
        assert tokenize("a != b")[1].value == "<>"

    def test_punctuation(self):
        assert values("( ) , . ;") == ["(", ")", ",", ".", ";"]


class TestParameters:
    def test_positional_param(self):
        token = tokenize("?")[0]
        assert token.kind == PARAM
        assert token.value is None

    def test_named_param(self):
        token = tokenize("?MyUId")[0]
        assert token.kind == PARAM
        assert token.value == "MyUId"

    def test_named_param_with_underscore_and_digits(self):
        assert tokenize("?user_2")[0].value == "user_2"


class TestCommentsAndErrors:
    def test_line_comment_skipped(self):
        assert values("SELECT -- comment here\n 1") == ["SELECT", 1]

    def test_comment_at_end_of_input(self):
        assert values("SELECT 1 -- trailing") == ["SELECT", 1]

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError) as err:
            tokenize("SELECT @")
        assert err.value.position == 7

    def test_number_then_dot_method_like(self):
        # "1." followed by non-digit: the dot belongs to the next token.
        assert values("1.x") == [1, ".", "x"]
