"""Property tests: scheme algebra, scheme files, the step-size update and the
input contracts of scheme files, the problem block and control blocks."""

import json
import math
import os
import tempfile
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from splitstep import (  # noqa: E402
    ConfigError,
    DegeneratePairWarning,
    SchemeFileError,
    SchemePair,
    SchemeRegistry,
    SplittingScheme,
    StepControlConfig,
    adjoint,
    builtin_registry,
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


# ---------------------------------------------------------------------------
# input contracts: one value of a valid entry or problem block replaced by
# any JSON value is taken or refused with the input error, never a crash

BIG = 10**400  # a JSON integer no float holds
ODD = [None, True, False, "", "0.5", "nan", [], {}, [1.0, 0.0], BIG, -BIG,
       1e300, -1e300, 1e-300, math.nan, math.inf, -math.inf]
# integers stay small: a large n, dim or component count asks for memory, not input checks
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=4)
    | st.sampled_from(ODD),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

ENTRIES = [
    ("schemes", {"name": "fuzzed", "order": 2, "stages": [[0.5, 1.0], [0.5, 0.0]],
                 "parabolic_safe": True, "palindromic": False}),
    ("pairs", {"name": "fuzzed", "kind": "milne", "integrator": "lie", "partner": "lie*",
               "gamma": [-1.0, 0.5]}),
    ("pairs", {"name": "fuzzed", "kind": "embedded", "integrator": "emb2c",
               "controller": "comp3c", "shared_prefix_len": 1}),
    ("pairs", {"name": "fuzzed", "kind": "milne", "integrator": "comp3c"}),  # partnerless
]


@st.composite
def mutated(draw, entries):
    """A valid (table, entry) with the value of one of its keys, or of a new key, replaced."""
    table, entry = draw(st.sampled_from(entries))
    key = draw(st.sampled_from(sorted(entry) + ["stray"]))
    return table, {**entry, key: draw(JSON)}


@settings(CHECK, max_examples=200)
@given(mutated(ENTRIES))
@example(("schemes", {**ENTRIES[0][1], "stages": [[BIG, 1.0], [0.5, 0.0]]}))
@example(("pairs", {**ENTRIES[1][1], "gamma": BIG}))
@example(("pairs", {**ENTRIES[1][1], "gamma": [1e300, 1e300]}))
@example(("pairs", {**ENTRIES[1][1], "partner": ["lie*"]}))
@example(("pairs", {**ENTRIES[2][1], "shared_prefix_len": True}))
@example(("schemes", {**ENTRIES[0][1], "name": "strang"}))
@example(("schemes", {**ENTRIES[0][1], "stages": [[math.nan, 1.0], [math.inf, 0.0]]}))
@example(("schemes", {**ENTRIES[0][1], "order": 1e-300}))
def test_a_mutated_scheme_file_entry_is_registered_or_refused(table_entry):
    table, entry = table_entry
    reg = builtin_registry()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePairWarning)
        path = os.path.join(tmp, "fuzzed.json")
        with open(path, "w") as fh:
            json.dump({table: [entry]}, fh)
        try:
            load_scheme_file(reg, path)
        except SchemeFileError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
    assert entry["name"] in getattr(reg, table)


PROBLEMS = [
    ("problem", {"name": "gray_scott", "dim": 1, "a": math.pi, "n": 16, "initial": "gs_rough",
                 "initial_args": {"q": 2.5, "seed": 1}, "params": {"alpha": 0.04},
                 "rk4_substep": 0.1, "dealias": True}),
    ("problem", {"name": "gray_scott_abc", "dim": 2, "n": 8, "initial": "gs_bump",
                 "dealias": False}),
    ("problem", {"name": "van_der_pol", "a": 10.0, "n": 16, "initial": "vdp_gaussians",
                 "params": {"eps": 1e-2, "du": 1.0}}),
    ("problem", {"name": "linear", "n": 16, "initial": "random_smooth",
                 "initial_args": {"m": 1, "scale": 0.5}, "diffusion": 0.5}),
]


@settings(CHECK, max_examples=200)
@given(mutated(PROBLEMS))
@example(("problem", {**PROBLEMS[2][1], "a": 1e-300}))
@example(("problem", {**PROBLEMS[1][1], "a": 1e200}))
@example(("problem", {**PROBLEMS[0][1], "a": 1e300}))
@example(("problem", {**PROBLEMS[3][1], "initial_args": {"m": 1, "seed": -1}}))
@example(("problem", {**PROBLEMS[0][1], "initial_args": {"q": [1.0, 2.0]}}))
@example(("problem", {**PROBLEMS[0][1], "params": {"alpha": BIG}}))
@example(("problem", {**PROBLEMS[3][1], "diffusion": math.nan}))
def test_a_mutated_problem_block_builds_or_is_refused(block_pair):
    from splitstep.cli import _build_problem

    _, block = block_pair
    try:
        prob, f0 = _build_problem({"problem": block})
    except ConfigError:
        return
    assert f0.m == prob.m and f0.grid.n <= 64 and f0.grid.dim <= 3


CONTROLS = [
    ("control", {"tol": 1e-4, "alpha": 0.9, "alpha_min": 0.25, "alpha_max": 4.0, "order_p": 2,
                 "h_init": 0.01, "h_min": 1e-12, "h_max": 1.0, "reject_threshold": 1.0,
                 "norm": "max", "local_extrapolation": True, "project_real": False}),
    ("control", {"tol": 1e-4}),  # the first step from tol
]


@settings(CHECK, max_examples=200)
@given(mutated(CONTROLS))
@example(("control", {**CONTROLS[0][1], "tol": BIG}))
@example(("control", {**CONTROLS[0][1], "alpha_max": BIG}))
@example(("control", {**CONTROLS[1][1], "tol": True}))
def test_a_mutated_control_block_steps_or_is_refused(block_pair):
    from splitstep.cli import _control_config
    from splitstep.control import _first_step

    _, block = block_pair
    try:
        cfg = _control_config(block, "run.control")
    except ConfigError:
        return
    h = _first_step(cfg, builtin_registry().pair("lie-avg"), 1.0)
    assert cfg.h_min <= next_step_size(h, 0.0, cfg, 1) <= cfg.h_max
