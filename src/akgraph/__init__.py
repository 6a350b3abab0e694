"""akgraph: attributed knowledge-base and argument graphs from annotated text.

Pipeline: ingest annotations -> detect inference markers -> build the
extended knowledge base -> derive arguments -> assemble the argument
knowledge graph -> compute naive / preferred extensions -> export.
"""

from .akg import AKG, AKGEdge, AKGNode, build_akg, classify_attack
from .arguments import Argument, ArgumentSet, derive_argument_set
from .ekb import (
    EKB,
    Formula,
    InferenceRule,
    build_ekb,
    parse_kind_override_file,
    parse_preference_file,
    validate_ekb,
)
from .ingest import (
    AnnotatedDocument,
    TextDocument,
    make_text_document,
    parse_brat_ann,
    parse_canonical_json,
    serialize_canonical_json,
    validate_document,
)
from .kbgraph import KBGraph, build_kb_graph
from .markers import IMMatch, MarkerLexicon, detect_ims, load_lexicon, resolve_implicit_ims
from .semantics import (
    AFProjection,
    Extension,
    is_acceptable,
    is_admissible,
    is_conflict_free,
    naive_extensions,
    preferred_extensions,
    project_af,
    semantics_report,
    set_attacks,
)
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "AKG", "AKGEdge", "AKGNode", "build_akg", "classify_attack",
    "Argument", "ArgumentSet", "derive_argument_set",
    "EKB", "Formula", "InferenceRule", "build_ekb",
    "parse_kind_override_file", "parse_preference_file", "validate_ekb",
    "AnnotatedDocument", "TextDocument", "make_text_document",
    "parse_brat_ann", "parse_canonical_json", "serialize_canonical_json",
    "validate_document",
    "KBGraph", "build_kb_graph",
    "IMMatch", "MarkerLexicon", "detect_ims", "load_lexicon",
    "resolve_implicit_ims",
    "AFProjection", "Extension", "is_acceptable", "is_admissible",
    "is_conflict_free", "naive_extensions", "preferred_extensions",
    "project_af", "semantics_report", "set_attacks",
    "Trace",
    "__version__",
]
