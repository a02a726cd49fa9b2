"""Rational parking-function combinatorics over exact integers.

Words over {0,...,m-1} act piecewise-linearly on sorted integer tuples;
the parking words are the ones whose action has a fixed point, and when
gcd(m, n) = 1 that fixed point pins down the inverse of the zeta map and
of the sweep map, as well as the Anderson and Pak-Stanley labelings of
the Sommers region.
"""

from .action import (
    Cycle,
    Diverged,
    Fixed,
    OrbitReport,
    Point,
    apply_letter,
    apply_word,
    construct_fixed_point_general,
    contraction_certificate,
    distance,
    find_fixed_point,
    norm,
    staircase_point,
)
from .affine import (
    AffinePermutation,
    anderson,
    anderson_inverse,
    dominant_to_filter,
    enumerate_sommers,
    filter_to_dominant,
    in_sommers,
    is_dominant,
    mn_swap_dominant,
    pak_stanley,
    pak_stanley_inverse,
    staircase_window,
    tuple_to_window,
    value_position,
    window_to_tuple,
)
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidBudget,
    IterationBudgetExhausted,
    LetterOutOfRange,
    LevelNotRemovable,
    NotAParkingWord,
    NotCoprime,
    NotDominant,
    NotDyck,
    NotInSommers,
    RatparkError,
    SchemaViolation,
)
from .filters import (
    Filter,
    column_minima,
    dyck_filter_to_path,
    dyck_word,
    enumerate_balanced,
    filter_from_column_minima,
    filter_from_dyck_word,
    filter_from_path,
    generator_filter,
    is_balanced,
    is_dyck,
    level,
    mn_swap,
    removable_levels,
    remove,
    to_balanced,
    to_dyck,
)
from .sweep import sweep, sweep_column_word, sweep_inverse
from .tuples import (
    FilterTuple,
    QTTable,
    area,
    area_word,
    dinv,
    dyck_embedding,
    fixed_point_oracle,
    qt_table,
    rank_word,
    tuple_from_area_word,
    tuple_from_rank_word,
    tuple_to_balanced,
    zeta,
    zeta_inverse,
)
from .words import (
    Classification,
    Word,
    classify,
    enumerate_words,
    is_parking_word,
    letter_histogram,
    touch_decomposition,
    touch_points,
    word,
)

__version__ = "0.1.0"
