"""Hypothesis strategies shared by the oracle tests of the integer kernels.

Import them from here rather than redefining them in a test module, so two
module-level strategies of one name never shadow each other.
"""

from hypothesis import strategies as st

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
