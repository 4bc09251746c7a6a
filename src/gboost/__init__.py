"""gboost: grammar graphs from ARPA models, plus similar-pair word boosting."""

from gboost.arpa import NGramModel, oracle_score, parse_arpa
from gboost.enhance import EnhanceConfig, SimilarPairGroup, enhance, load_pairs_config
from gboost.errors import (FormatError, GboostError, InvariantError, NoPathError)
from gboost.evaluate import (EvalReport, RankingCase, grid_tsv, load_cases,
                             run_ranking, sweep)
from gboost.fst import Arc, FstDiff, SymbolTable, Wfst, diff, read_text, write_text
from gboost.graph import build_g, graph_score

__version__ = "0.1.0"

__all__ = [
    "Arc", "EnhanceConfig", "EvalReport", "FormatError", "FstDiff",
    "GboostError", "InvariantError", "NGramModel", "NoPathError",
    "RankingCase", "SimilarPairGroup", "SymbolTable", "Wfst",
    "build_g", "diff", "enhance", "graph_score", "grid_tsv", "load_cases",
    "load_pairs_config", "oracle_score", "parse_arpa", "read_text",
    "run_ranking", "sweep", "write_text",
]
