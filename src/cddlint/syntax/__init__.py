"""Lexing and parsing of the analyzed Java subset."""

from .ast import Diagnostic, SourceUnit, Span
from .parser import ParseError, parse_unit
from .scanner import active_backend, physical_loc
from .tokens import InvalidCharacter, TokenKind, TokenStream

__all__ = [
    "Diagnostic",
    "InvalidCharacter",
    "ParseError",
    "SourceUnit",
    "Span",
    "TokenKind",
    "TokenStream",
    "active_backend",
    "parse_unit",
    "physical_loc",
]
