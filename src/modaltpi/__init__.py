"""Knowledge compilation for modal logics K and T.

Compiles a modal knowledge base X and a propositional theory Y entailed
by it into the theory prime implicates of X modulo []Y, and answers
clausal queries against the compilation.  This namespace holds the API
the README documents; the modules hold the rest.
"""

from .errors import (
    BudgetExceededError, CapacityError, FormulaSyntaxError,
    InconsistentTermError, ModalTpiError, NonClausalQueryError,
    NotAClauseError, NotATermError, PreconditionError, SchemaError,
)
from .formula import (
    Formula, TRUE, FALSE, parse, nnf, var, land, lor, lnot, box, dia,
)
from .semantics import (
    System, KripkeModel, evaluate, is_satisfiable, find_model,
    entails, entails_mod, equivalent, equivalent_mod, clear_cache,
)
from .pi import CompilationResult, compile_kb, prime_implicates
from .qa import (
    QueryVerdict, answer_query, answer_query_direct,
    load_kb, save_compilation, load_compilation,
)

__version__ = "0.1.0"
