"""Recursive-descent parser for the SQL dialect.

Supports the classical DML/DDL core plus the paper's extensions: flexible
tables (``CREATE FLEXIBLE TABLE``), explicit delta merge (``MERGE DELTA OF
t``), hash/range partition clauses, ``CONTAINS`` text predicates, and the
engine functions (geo/document/hierarchy/planning) which parse as ordinary
function calls and resolve in the function registry.
"""

from __future__ import annotations

import datetime as _dt
import operator
from typing import Any, Callable

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, number_value, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}

#: what the parser made of one literal token: the :class:`~repro.sql.ast.Literal`
#: it became (``None`` for a LIMIT/OFFSET or DDL count), the token's own
#: value, and the conversion from the one to the other — ``None`` as is,
#: :func:`operator.neg` for a folded ``-3``, a date parse for ``DATE '…'``
Source = tuple["ast.Literal | None", Any, "Callable[[Any], Any] | None"]


class Parser:
    """One-shot parser over a token list; use :func:`parse`."""

    def __init__(
        self, tokens: list[Token], text: str, sources: list[Source] | None = None
    ) -> None:
        self._tokens = tokens
        self._text = text
        self._index = 0
        self._sources = sources

    # -- token helpers ----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _check_keyword(self, *keywords: str) -> bool:
        token = self._current
        return token.kind == "KEYWORD" and token.value in keywords

    def _accept_keyword(self, *keywords: str) -> str | None:
        if self._check_keyword(*keywords):
            return self._advance().value
        return None

    def _expect_keyword(self, keyword: str) -> None:
        if not self._accept_keyword(keyword):
            raise SqlSyntaxError(
                f"expected {keyword}, found {self._current.value or 'end of input'}",
                self._current.position,
            )

    def _check_punct(self, value: str) -> bool:
        token = self._current
        return token.kind == "PUNCT" and token.value == value

    def _accept_punct(self, value: str) -> bool:
        if self._check_punct(value):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise SqlSyntaxError(
                f"expected {value!r}, found {self._current.value or 'end of input'}",
                self._current.position,
            )

    def _expect_ident(self) -> str:
        token = self._current
        if token.kind == "IDENT":
            return self._advance().value
        # allow non-reserved keywords as identifiers in name position
        if token.kind == "KEYWORD" and token.value in ("DATE", "TIMESTAMP", "KEY", "ROW", "COLUMN"):
            return self._advance().value.lower()
        raise SqlSyntaxError(
            f"expected identifier, found {token.value or 'end of input'}",
            token.position,
        )

    def _expect_number(self) -> float | int:
        token = self._current
        if token.kind != "NUMBER":
            raise SqlSyntaxError(f"expected number, found {token.value!r}", token.position)
        self._advance()
        value = number_value(token.value)
        self._record(None, value)
        return value

    def _record(
        self,
        literal: ast.Literal | None,
        value: Any,
        convert: Callable[[Any], Any] | None = None,
    ) -> None:
        """Note one consumed literal token when the caller asked for sources."""
        if self._sources is not None:
            self._sources.append((literal, value, convert))

    # -- entry points -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._check_keyword("SELECT"):
            statement: ast.Statement = self._parse_select_or_union()
        elif self._check_keyword("INSERT"):
            statement = self._parse_insert()
        elif self._check_keyword("UPDATE"):
            statement = self._parse_update()
        elif self._check_keyword("DELETE"):
            statement = self._parse_delete()
        elif self._check_keyword("CREATE"):
            statement = self._parse_create()
        elif self._check_keyword("DROP"):
            statement = self._parse_drop()
        elif self._check_keyword("MERGE"):
            statement = self._parse_merge_delta()
        elif self._check_keyword("BEGIN"):
            self._advance()
            self._accept_keyword("WORK")
            statement = ast.TransactionStatement("begin")
        elif self._check_keyword("COMMIT"):
            self._advance()
            self._accept_keyword("WORK")
            statement = ast.TransactionStatement("commit")
        elif self._check_keyword("ROLLBACK"):
            self._advance()
            self._accept_keyword("WORK")
            statement = ast.TransactionStatement("rollback")
        else:
            raise SqlSyntaxError(
                f"unexpected start of statement: {self._current.value!r}",
                self._current.position,
            )
        self._accept_punct(";")
        if self._current.kind != "EOF":
            raise SqlSyntaxError(
                f"trailing input after statement: {self._current.value!r}",
                self._current.position,
            )
        return statement

    # -- SELECT --------------------------------------------------------------

    def _parse_select_or_union(self) -> "ast.SelectStatement | ast.UnionStatement":
        first = self.parse_select()
        if not self._check_keyword("UNION"):
            return first
        selects = [first]
        alls: list[bool] = []
        while self._accept_keyword("UNION"):
            alls.append(bool(self._accept_keyword("ALL")))
            selects.append(self.parse_select())
        # ORDER BY / LIMIT parsed into the last branch bind to the compound
        last = selects[-1]
        union = ast.UnionStatement(
            selects=selects,
            alls=alls,
            order_by=last.order_by,
            limit=last.limit,
            offset=last.offset,
        )
        last.order_by = []
        last.limit = None
        last.offset = None
        return union

    def parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("SELECT")
        distinct = bool(self._accept_keyword("DISTINCT"))
        self._accept_keyword("ALL")
        items = [self._parse_select_item()]
        while self._accept_punct(","):
            items.append(self._parse_select_item())

        from_table: ast.TableRef | None = None
        joins: list[ast.JoinClause] = []
        if self._accept_keyword("FROM"):
            from_table = self._parse_table_ref()
            while True:
                if self._accept_punct(","):
                    joins.append(ast.JoinClause("cross", self._parse_table_ref(), None))
                    continue
                kind = self._parse_join_kind()
                if kind is None:
                    break
                table = self._parse_table_ref()
                condition: ast.Expr | None = None
                if kind != "cross":
                    self._expect_keyword("ON")
                    condition = self.parse_expression()
                joins.append(ast.JoinClause(kind, table, condition))

        where = self.parse_expression() if self._accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self._accept_punct(","):
                group_by.append(self.parse_expression())

        having = self.parse_expression() if self._accept_keyword("HAVING") else None

        order_by: list[tuple[ast.Expr, bool]] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_punct(","):
                order_by.append(self._parse_order_item())

        limit = offset = None
        if self._accept_keyword("LIMIT"):
            limit = int(self._expect_number())
        if self._accept_keyword("OFFSET"):
            offset = int(self._expect_number())

        return ast.SelectStatement(
            items=items,
            from_table=from_table,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        if self._check_punct("*"):
            self._advance()
            return ast.SelectItem(ast.Star())
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.kind == "IDENT":
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> tuple[ast.Expr, bool]:
        expr = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC"):
            ascending = False
        else:
            self._accept_keyword("ASC")
        return expr, ascending

    def _parse_join_kind(self) -> str | None:
        if self._accept_keyword("JOIN"):
            return "inner"
        if self._accept_keyword("INNER"):
            self._expect_keyword("JOIN")
            return "inner"
        if self._accept_keyword("LEFT"):
            self._accept_keyword("OUTER")
            self._expect_keyword("JOIN")
            return "left"
        if self._accept_keyword("CROSS"):
            self._expect_keyword("JOIN")
            return "cross"
        return None

    def _parse_table_ref(self) -> ast.TableRef:
        if self._accept_punct("("):
            subquery = self.parse_select()
            self._expect_punct(")")
            self._accept_keyword("AS")
            alias = self._expect_ident()
            return ast.TableRef(name=None, alias=alias.lower(), subquery=subquery)
        name = self._expect_ident()
        alias = name
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._current.kind == "IDENT":
            alias = self._advance().value
        return ast.TableRef(name=name.lower(), alias=alias.lower())

    # -- DML -------------------------------------------------------------------

    def _parse_insert(self) -> ast.InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident().lower()
        columns: list[str] | None = None
        if self._accept_punct("("):
            columns = [self._expect_ident()]
            while self._accept_punct(","):
                columns.append(self._expect_ident())
            self._expect_punct(")")
        if self._check_keyword("SELECT"):
            return ast.InsertStatement(table, columns, rows=[], select=self.parse_select())
        self._expect_keyword("VALUES")
        rows = [self._parse_value_row()]
        while self._accept_punct(","):
            rows.append(self._parse_value_row())
        return ast.InsertStatement(table, columns, rows)

    def _parse_value_row(self) -> list[ast.Expr]:
        self._expect_punct("(")
        row = [self.parse_expression()]
        while self._accept_punct(","):
            row.append(self.parse_expression())
        self._expect_punct(")")
        return row

    def _parse_update(self) -> ast.UpdateStatement:
        self._expect_keyword("UPDATE")
        table = self._expect_ident().lower()
        self._expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self._accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expression() if self._accept_keyword("WHERE") else None
        return ast.UpdateStatement(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self._expect_ident()
        self._expect_punct("=")
        return column, self.parse_expression()

    def _parse_delete(self) -> ast.DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident().lower()
        where = self.parse_expression() if self._accept_keyword("WHERE") else None
        return ast.DeleteStatement(table, where)

    # -- DDL --------------------------------------------------------------------

    def _parse_create(self) -> ast.CreateTableStatement:
        self._expect_keyword("CREATE")
        store = "column"
        flexible = False
        if self._accept_keyword("ROW"):
            store = "row"
        elif self._accept_keyword("COLUMN"):
            store = "column"
        elif self._accept_keyword("FLEXIBLE"):
            flexible = True
        self._expect_keyword("TABLE")
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        table = self._expect_ident().lower()
        self._expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: list[str] = []
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_punct("(")
                primary_key.append(self._expect_ident())
                while self._accept_punct(","):
                    primary_key.append(self._expect_ident())
                self._expect_punct(")")
            else:
                column = self._parse_column_def()
                columns.append(column)
                if column.primary_key:
                    primary_key.append(column.name)
            if not self._accept_punct(","):
                break
        self._expect_punct(")")

        partition_kind = None
        partition_columns: list[str] = []
        partition_count: int | None = None
        partition_boundaries: list[Any] = []
        if self._accept_keyword("PARTITION"):
            self._expect_keyword("BY")
            if self._accept_keyword("HASH"):
                partition_kind = "hash"
                self._expect_punct("(")
                partition_columns.append(self._expect_ident())
                while self._accept_punct(","):
                    partition_columns.append(self._expect_ident())
                self._expect_punct(")")
                self._expect_keyword("PARTITIONS")
                partition_count = int(self._expect_number())
            elif self._accept_keyword("RANGE"):
                partition_kind = "range"
                self._expect_punct("(")
                partition_columns.append(self._expect_ident())
                self._expect_punct(")")
                self._expect_keyword("BOUNDARIES")
                self._expect_punct("(")
                partition_boundaries.append(self._parse_literal_value())
                while self._accept_punct(","):
                    partition_boundaries.append(self._parse_literal_value())
                self._expect_punct(")")
            else:
                raise SqlSyntaxError("expected HASH or RANGE", self._current.position)

        return ast.CreateTableStatement(
            table=table,
            columns=columns,
            primary_key=primary_key,
            store=store,
            flexible=flexible,
            if_not_exists=if_not_exists,
            partition_kind=partition_kind,
            partition_columns=partition_columns,
            partition_count=partition_count,
            partition_boundaries=partition_boundaries,
        )

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        token = self._current
        if token.kind == "IDENT" or (token.kind == "KEYWORD" and token.value in ("DATE", "TIMESTAMP")):
            type_name = self._advance().value
        else:
            raise SqlSyntaxError(f"expected type name, found {token.value!r}", token.position)
        length = precision = scale = None
        if self._accept_punct("("):
            first = int(self._expect_number())
            if self._accept_punct(","):
                precision = first
                scale = int(self._expect_number())
            else:
                length = first
                precision = first
            self._expect_punct(")")
        nullable = True
        primary_key = False
        default: Any = None
        while True:
            if self._accept_keyword("NOT"):
                self._expect_keyword("NULL")
                nullable = False
            elif self._accept_keyword("NULL"):
                nullable = True
            elif self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                primary_key = True
                nullable = False
            elif self._accept_keyword("DEFAULT"):
                default = self._parse_literal_value()
            else:
                break
        return ast.ColumnDef(
            name=name,
            type_name=type_name,
            length=length,
            precision=precision,
            scale=scale,
            nullable=nullable,
            primary_key=primary_key,
            default=default,
        )

    def _parse_drop(self) -> ast.DropTableStatement:
        self._expect_keyword("DROP")
        self._expect_keyword("TABLE")
        if_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("EXISTS")
            if_exists = True
        return ast.DropTableStatement(self._expect_ident().lower(), if_exists)

    def _parse_merge_delta(self) -> ast.MergeDeltaStatement:
        self._expect_keyword("MERGE")
        self._expect_keyword("DELTA")
        self._expect_keyword("OF")
        return ast.MergeDeltaStatement(self._expect_ident().lower())

    # -- expressions (precedence climbing) -----------------------------------------

    def parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        token = self._current
        if token.kind == "PUNCT" and token.value in _COMPARISON_OPS:
            op = self._advance().value
            if op == "!=":
                op = "<>"
            return ast.BinaryOp(op, left, self._parse_additive())
        negated = bool(self._accept_keyword("NOT"))
        if self._accept_keyword("IS"):
            if negated:
                raise SqlSyntaxError("unexpected NOT before IS", token.position)
            is_negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)
        if self._accept_keyword("IN"):
            self._expect_punct("(")
            items = [self.parse_expression()]
            while self._accept_punct(","):
                items.append(self.parse_expression())
            self._expect_punct(")")
            return ast.InList(left, tuple(items), negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated=negated)
        if self._accept_keyword("LIKE"):
            expr: ast.Expr = ast.BinaryOp("LIKE", left, self._parse_additive())
            return ast.UnaryOp("NOT", expr) if negated else expr
        if negated:
            raise SqlSyntaxError(
                "expected IN, BETWEEN, or LIKE after NOT", self._current.position
            )
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            if self._check_punct("+") or self._check_punct("-") or self._check_punct("||"):
                op = self._advance().value
                left = ast.BinaryOp(op, left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self._check_punct("*") or self._check_punct("/") or self._check_punct("%"):
                op = self._advance().value
                left = ast.BinaryOp(op, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self._accept_punct("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                folded = ast.Literal(-operand.value)
                sources = self._sources
                if sources and sources[-1][0] is operand:
                    _operand, value, convert = sources[-1]
                    negate = None if convert is operator.neg else operator.neg
                    sources[-1] = (folded, value, negate)
                return folded
            return ast.UnaryOp("-", operand)
        self._accept_punct("+")
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._current
        if token.kind == "NUMBER":
            self._advance()
            value = number_value(token.value)
            literal = ast.Literal(value)
            self._record(literal, value)
            return literal
        if token.kind == "STRING":
            self._advance()
            literal = ast.Literal(token.value)
            self._record(literal, token.value)
            return literal
        if self._accept_keyword("NULL"):
            return ast.Literal(None)
        if self._accept_keyword("TRUE"):
            return ast.Literal(True)
        if self._accept_keyword("FALSE"):
            return ast.Literal(False)
        for keyword, convert in _TYPED_STRINGS:
            if self._check_keyword(keyword) and self._tokens[self._index + 1].kind == "STRING":
                self._advance()
                text = self._advance().value
                literal = ast.Literal(convert(text))
                self._record(literal, text, convert)
                return literal
        if self._accept_keyword("CASE"):
            return self._parse_case()
        if self._accept_keyword("CONTAINS"):
            # CONTAINS(column, 'search terms') — text-search predicate
            self._expect_punct("(")
            args = [self.parse_expression()]
            while self._accept_punct(","):
                args.append(self.parse_expression())
            self._expect_punct(")")
            return ast.FunctionCall("CONTAINS", tuple(args))
        if self._accept_punct("("):
            if self._check_keyword("SELECT"):
                raise SqlSyntaxError(
                    "scalar subqueries are not supported; use a join", token.position
                )
            expr = self.parse_expression()
            self._expect_punct(")")
            return expr
        if token.kind in ("IDENT", "KEYWORD"):
            name = self._expect_ident()
            if self._accept_punct("("):
                return self._parse_call(name)
            if self._accept_punct("."):
                if self._check_punct("*"):
                    self._advance()
                    return ast.Star(table=name.lower())
                column = self._expect_ident()
                return ast.ColumnRef(column.lower(), table=name.lower())
            return ast.ColumnRef(name.lower())
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )

    def _parse_call(self, name: str) -> ast.Expr:
        upper = name.upper()
        distinct = False
        args: list[ast.Expr] = []
        if self._check_punct(")"):
            self._advance()
            return ast.FunctionCall(upper, ())
        if self._check_punct("*"):
            self._advance()
            self._expect_punct(")")
            return ast.FunctionCall(upper, (ast.Star(),))
        if self._accept_keyword("DISTINCT"):
            distinct = True
        args.append(self.parse_expression())
        while self._accept_punct(","):
            args.append(self.parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(upper, tuple(args), distinct=distinct)

    def _parse_case(self) -> ast.Expr:
        branches: list[tuple[ast.Expr, ast.Expr]] = []
        otherwise: ast.Expr | None = None
        while self._accept_keyword("WHEN"):
            condition = self.parse_expression()
            self._expect_keyword("THEN")
            branches.append((condition, self.parse_expression()))
        if self._accept_keyword("ELSE"):
            otherwise = self.parse_expression()
        self._expect_keyword("END")
        if not branches:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        return ast.CaseWhen(tuple(branches), otherwise)

    def _parse_literal_value(self) -> Any:
        expr = self._parse_unary()
        if not isinstance(expr, ast.Literal):
            raise SqlSyntaxError("expected a literal value", self._current.position)
        return expr.value


#: ``DATE '…'`` / ``TIMESTAMP '…'``: a keyword, then a string it converts
_TYPED_STRINGS: tuple[tuple[str, Callable[[str], Any]], ...] = (
    ("DATE", _dt.date.fromisoformat),
    ("TIMESTAMP", _dt.datetime.fromisoformat),
)


def parse(sql: str, sources: list[Source] | None = None) -> ast.Statement:
    """Parse one SQL statement.

    With ``sources``, every literal token the parser consumes is appended
    to it in text order (see :data:`Source`): what the plan cache needs to
    bind a later statement of the same shape without parsing it.
    """
    return Parser(tokenize(sql), sql, sources).parse_statement()


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by aging rules and tests)."""
    parser = Parser(tokenize(text), text)
    expr = parser.parse_expression()
    if parser._current.kind != "EOF":
        raise SqlSyntaxError(
            f"trailing input after expression: {parser._current.value!r}",
            parser._current.position,
        )
    return expr
