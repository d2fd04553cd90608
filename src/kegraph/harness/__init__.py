"""Seeded generators, named fixtures, theorem checks, and the fuzz runner."""

from .checks import (
    CHECK_STATEMENTS,
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckVerdict,
    check,
    check_ids,
)
from .fixtures import Fixture, fixtures
from .fuzz import FuzzSummary, fuzz, shrink_failure
from .generators import KINDS, MIN_N, P_KINDS, GeneratorConfig, generate
