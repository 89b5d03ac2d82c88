"""Specification language front end: lexer, parser, typechecker, evaluator.

Import submodules directly (`graphilp.lang.parser`, `graphilp.lang.typecheck`);
the package root re-exports the common entry points.
"""
