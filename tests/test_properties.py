"""Property tests: scheme algebra, scheme files and the step-size update."""

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from splitstep import (  # noqa: E402
    SchemePair,
    SchemeRegistry,
    SplittingScheme,
    StepControlConfig,
    adjoint,
    load_scheme_file,
    next_step_size,
    save_scheme_file,
)
from splitstep.schemes import _pack_word  # noqa: E402

# no deadline on a loaded host, and the same examples on every run
CHECK = settings(deadline=None, derandomize=True)
COEFFS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def words(draw):
    """(arity, word): nonzero (slot, coefficient) letters whose slot sums are 1."""
    arity = draw(st.sampled_from([2, 3]))
    letters = draw(st.lists(st.tuples(st.integers(0, arity - 1), COEFFS), max_size=8))
    word = [(slot, c) for slot, c in letters if c != 0]
    for slot in range(arity):
        rest = 1.0 - sum(c for s, c in word if s == slot)
        if rest != 0:
            word.append((slot, rest))
    return arity, tuple(word)


@st.composite
def schemes(draw, name="s"):
    arity, word = draw(words())
    return SplittingScheme(name, draw(st.integers(1, 4)), _pack_word(word, arity))


@CHECK
@given(words())
def test_pack_word_round_trips_through_the_schemes_word(arity_word):
    arity, word = arity_word
    assert SplittingScheme("w", 1, _pack_word(word, arity)).word() == word


@CHECK
@given(schemes())
def test_adjoint_is_an_involution(scheme):
    twice = adjoint(adjoint(scheme))
    assert twice.word() == scheme.word()
    assert twice.stages == scheme.stages and twice.name == scheme.name
    assert adjoint(scheme).word() == tuple(reversed(scheme.word()))


@settings(CHECK, max_examples=50)
@given(schemes("file-s"), COEFFS.filter(lambda g: g != 1))
def test_scheme_file_round_trips_schemes_and_a_milne_pair(s, gamma):
    t = adjoint(s)  # a partner of the same arity and order
    pair = SchemePair("file-p", "milne", s, partner=t, gamma=gamma)
    reg = SchemeRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "schemes.json")
        save_scheme_file(path, schemes=[s, t], pairs=[pair])
        load_scheme_file(reg, path)
    for scheme in (s, t):
        got = reg.scheme(scheme.name)
        assert (got.order, got.stages) == (scheme.order, scheme.stages)
    got = reg.pair("file-p")
    assert got.gamma == gamma
    assert (got.integrator.stages, got.partner.stages) == (s.stages, t.stages)


POSITIVE = st.floats(1e-8, 1e3)


@st.composite
def configs(draw):
    h_min = draw(st.floats(1e-12, 1e-2))
    return StepControlConfig(
        tol=draw(POSITIVE), alpha=draw(st.floats(0.1, 1.0)),
        alpha_min=draw(st.floats(0.01, 0.99)), alpha_max=draw(st.floats(1.01, 10.0)),
        h_min=h_min, h_max=h_min * draw(st.floats(1.0, 1e6)),
    )


@CHECK
@given(configs(), st.floats(1e-12, 10.0), st.floats(0.0, 1e6), st.floats(0.0, 1e6),
       st.integers(1, 5))
def test_next_step_size_is_monotone_in_est_and_clipped(cfg, h, est_a, est_b, p):
    lo, hi = sorted((est_a, est_b))
    h_lo, h_hi = next_step_size(h, lo, cfg, p), next_step_size(h, hi, cfg, p)
    assert h_lo >= h_hi
    assert cfg.h_min <= h_hi and h_lo <= cfg.h_max
