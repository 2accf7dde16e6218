"""Hypothesis strategies shared by the oracle tests of the integer kernels.

Import them from here rather than redefining them in a test module, so two
module-level strategies of one name never shadow each other.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from ordembed.algebra import product_algebra
from ordembed.linalg import MatQ
from ordembed.samples import (
    SEMISIMPLE_POOL,
    change_basis,
    quaternion_algebra,
    random_unimodular,
)

# Raw `int` and `Fraction` entries side by side, as a table or a matrix may
# hold them, with denominators up to 10^6.
wide_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6),
)

# Nonzero scalars of both signs, for rescaling a basis without changing its span.
nonzero_scales = st.one_of(
    st.integers(1, 9),
    st.integers(-9, -1),
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 6).filter(bool),
)


@st.composite
def scrambled_semisimple(draw):
    """A product of one or two semisimple sample algebras on a scaled unimodular basis."""
    pool = SEMISIMPLE_POOL + (lambda: quaternion_algebra(-1, -1),)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=2))
    alg = product_algebra([pool[i]() for i in picks])
    n = alg.dim
    u = random_unimodular(n, random.Random(draw(st.integers(0, 10 ** 6))))
    scales = [Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 7))) for _ in range(n)]
    u = MatQ.from_rows(tuple(tuple(s * x for x in r) for s, r in zip(scales, u.rows)))
    return change_basis(alg, u, name="A")
