"""The SQL stack: parser, planner, one operator table run interpreted or
compiled, and the Volcano interpreter as their oracle."""

from repro.sql.parser import parse, parse_expression
from repro.sql.planner import plan_select

__all__ = ["parse", "parse_expression", "plan_select"]
