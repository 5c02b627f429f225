"""Specification extraction (reverse synthesis): skeletons, full
extraction, architectural mapping and the match-ratio metric."""

from .extractor import ExtractionResult, extract_specification
from .mapper import ArchitecturalMap, MatchedPair, build_map, normalize_name
from .matchratio import MatchRatio, match_ratio
from .skeleton import SkeletonError, extract_skeleton, map_type
from .termtospec import TermConversionError, term_to_spec

__all__ = [
    "extract_specification", "ExtractionResult",
    "extract_skeleton", "map_type", "SkeletonError",
    "build_map", "ArchitecturalMap", "MatchedPair", "normalize_name",
    "match_ratio", "MatchRatio",
    "term_to_spec", "TermConversionError",
]
