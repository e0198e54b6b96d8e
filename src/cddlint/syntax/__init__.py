"""Lexing and parsing of the analyzed Java subset."""

from .ast import Diagnostic, SourceUnit, Span, iter_type_decls
from .parser import ParseError, parse_unit
from .scanner import active_backend, physical_loc, tokenize
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
    "iter_type_decls",
    "parse_unit",
    "physical_loc",
    "tokenize",
]
