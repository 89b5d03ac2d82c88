"""graphilp: graph rewriting compiled to 0/1 integer programs.

Take a typed attributed graph, a set of rewrite rules, and a declarative
specification (mappings, constraints, objectives); construct a binary program
whose variables are rule matches; solve it exactly; apply the selected
matches back to the graph.
"""

from .encode import (GenerationError, IlpProblem, MappingTable, ObjectiveFunc, Row,
                     Variable, apply_solution, dump_problem, generate)
from .lang.parser import DslSyntaxError, parse, parse_expression
from .lang.typecheck import TypecheckError, TypedSpec, typecheck
from .lpformat import LpParseError, export_lp, import_lp, problems_equal
from .model import (ConformanceError, Edge, Graph, GraphDelta, Metamodel,
                    ModelError, Node, apply_delta, load_graph, load_metamodel,
                    load_model, serialize_graph, serialize_metamodel,
                    serialize_model, validate_graph)
from .pattern import (Match, Pattern, PatternEdge, PatternError, PatternNode,
                      Rule, StaleMatchError, apply_rule, find_matches,
                      revalidate)
from .solve import (BruteForceTooLarge, Solution, SolveError, brute_force,
                    lp_relaxation, solve)
from .vne import (EmbeddingReport, Range, ScenarioConfig, ScenarioError,
                  Violation, VnrRecord, embed_incremental, generate_scenario,
                  parse_scenario_config, full_scale_config, render_report,
                  report_json, scenario_text, verify_embedding)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
