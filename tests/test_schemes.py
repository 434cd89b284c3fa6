"""Coefficient words, adjoints, order verification, registry, scheme files.

Scheme orders are verified against a dense matrix-exponential oracle:
for linear operators the splitting error is computable exactly, so the
local error must shrink like h^(p+1).
"""

import json

import numpy as np
import pytest

from _oracles import expm_dense

from splitstep import (
    GAMMA3,
    ConfigError,
    DegeneratePairWarning,
    Field,
    SchemeFileError,
    SchemePair,
    SchemeRegistry,
    SplitProblem,
    SplittingScheme,
    TorusGrid,
    adjoint,
    apply_word,
    builtin_registry,
    compose_step,
    estimate_step,
    gray_scott_abc_problem,
    initial_condition,
    is_self_adjoint,
    linear_problem,
    load_scheme_file,
    save_scheme_file,
    to_nodal,
)
from splitstep.problems import gs_reaction_b_flow, gs_reaction_c_flow

REG = builtin_registry()


# ---------------------------------------------------------------------------
# construction and validation


def test_builtin_inventory():
    assert sorted(REG.schemes) == ["comp3c", "emb2c", "lie", "lie*", "lie3", "strang", "strang3"]
    assert sorted(REG.pairs) == [
        "comp3c-avg",
        "emb23c",
        "lie-avg",
        "lie-milne",
        "lie3-avg",
    ]


def test_slot_sums_must_be_one():
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 1, ((0.5, 1.0),))
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 1, ((1.0, 1.0 + 1e-6),))
    with pytest.raises(ConfigError, match="slot 0"):
        SplittingScheme("bad", 1, ((float("nan"), 1.0),))
    # right at the tolerance is accepted
    SplittingScheme("ok", 1, ((1.0, 1.0 + 1e-13),))


def test_stage_shape_validation():
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 1, ())
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 1, ((1.0,),))
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 1, ((0.5, 1.0), (0.5, 0.0, 0.0)))
    with pytest.raises(ConfigError):
        SplittingScheme("bad", 0, ((1.0, 1.0),))


def test_flow_eval_counts():
    counts = {"lie": 2, "lie*": 2, "strang": 3, "comp3c": 5, "emb2c": 6, "lie3": 3, "strang3": 5}
    for name, n in counts.items():
        assert REG.scheme(name).flow_evals == n, name


def test_parabolic_safety_flags():
    for name in ("lie", "strang", "comp3c", "emb2c", "lie3", "strang3"):
        assert REG.scheme(name).parabolic_safe, name
    back = SplittingScheme("back", 1, ((-0.5, 0.5), (1.5, 0.5)))
    assert not back.parabolic_safe
    assert REG.scheme("comp3c").is_complex
    assert not REG.scheme("strang").is_complex


def test_gamma3_is_the_cube_root_condition():
    # gamma^3 + (1-gamma)^3 = 0 kills the leading error of the two-jump
    # composition; Re(gamma) = 1/2 keeps both jumps parabolic-safe
    assert abs(GAMMA3**3 + (1.0 - GAMMA3) ** 3) <= 1e-15
    assert GAMMA3.real == pytest.approx(0.5)


def test_second_order_condition():
    # for an A-first word, sum_j b_j * (a_1 + ... + a_j) = 1/2 at order 2
    def cond(scheme):
        acc = 0.0
        total = 0.0
        for a_j, b_j in scheme.stages:
            acc += a_j
            total += b_j * acc
        return total

    assert cond(REG.scheme("strang")) == pytest.approx(0.5, abs=1e-14)
    assert cond(REG.scheme("emb2c")) == pytest.approx(0.5, abs=1e-14)
    assert cond(REG.scheme("comp3c")) == pytest.approx(0.5, abs=1e-14)
    assert cond(REG.scheme("lie")) == pytest.approx(1.0)  # first order only


# ---------------------------------------------------------------------------
# matrix-exponential order oracle


def _word_step(scheme, mats, h, v):
    for slot, c in scheme.word():
        v = expm_dense(mats[slot] * (c * h)) @ v
    return v


def _local_order(scheme, arity, seed=0):
    rng = np.random.default_rng(seed)
    mats = [
        0.4 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        for _ in range(arity)
    ]
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    total = sum(mats)
    errs = []
    hs = [0.04, 0.02, 0.01]
    for h in hs:
        exact = expm_dense(total * h) @ v
        errs.append(np.linalg.norm(_word_step(scheme, mats, h, v) - exact))
    slopes = np.diff(np.log(errs)) / np.diff(np.log(hs))
    return float(np.mean(slopes))


@pytest.mark.parametrize(
    "name,p",
    [("lie", 1), ("lie*", 1), ("strang", 2), ("emb2c", 2), ("comp3c", 3)],
)
def test_scheme_local_order_two_operators(name, p):
    slope = _local_order(REG.scheme(name), 2)
    assert abs(slope - (p + 1)) <= 0.15, (name, slope)


@pytest.mark.parametrize("name,p", [("lie3", 1), ("strang3", 2)])
def test_scheme_local_order_three_operators(name, p):
    slope = _local_order(REG.scheme(name), 3)
    assert abs(slope - (p + 1)) <= 0.15, (name, slope)


# ---------------------------------------------------------------------------
# composition semantics


def test_lie_composition_is_b_after_a():
    grid = TorusGrid(1, 1.0, 16)
    prob = linear_problem(grid, diffusion=0.3, potential=lambda x: np.cos(np.pi * x))
    f = Field(grid, np.exp(np.sin(np.pi * grid.axis())))
    h = 0.17
    got = compose_step(REG.scheme("lie"), prob, h, f)
    ref = prob.flows[1](h, prob.flows[0](h, f))
    assert np.array_equal(to_nodal(got).data, to_nodal(ref).data)


def test_zero_coefficients_cost_nothing():
    calls = []
    grid = TorusGrid(1, 1.0, 8)

    def mkflow(i):
        def flow(t, f):
            calls.append((i, t))
            return f

        return flow

    prob = SplitProblem("count", (mkflow(0), mkflow(1)), (None, None), 1)
    f = Field(grid, np.ones(8))
    for name in ("lie", "strang", "comp3c", "emb2c"):
        calls.clear()
        scheme = REG.scheme(name)
        out, n = apply_word(scheme.word(), prob, 0.1, f)
        assert n == scheme.flow_evals
        assert len(calls) == scheme.flow_evals
    # h = 0 short-circuits every letter
    calls.clear()
    out, n = apply_word(REG.scheme("strang").word(), prob, 0.0, f)
    assert n == 0 and not calls and out is f


def test_arity_mismatch_rejected():
    grid = TorusGrid(1, 1.0, 8)
    prob3 = gray_scott_abc_problem(grid)
    with pytest.raises(ConfigError):
        compose_step(REG.scheme("strang"), prob3, 0.1, Field(grid, np.ones((2, 8))))


def test_commuting_operators_make_every_scheme_exact():
    # V = const commutes with diffusion: the splitting has no error at all
    grid = TorusGrid(1, 1.0, 16)
    mu, v0 = 0.3, -0.7
    prob = linear_problem(grid, diffusion=mu, potential=lambda x: v0 + 0.0 * x)
    rng = np.random.default_rng(4)
    f = Field(grid, rng.standard_normal(16))
    h = 0.2

    from splitstep import apply_symbol, laplacian_symbol, to_modal

    sym = np.exp((mu * laplacian_symbol(grid) + v0) * h)
    exact = to_nodal(apply_symbol(to_modal(f), lambda *k: sym))
    for name in ("lie", "lie*", "strang", "comp3c", "emb2c"):
        got = to_nodal(compose_step(REG.scheme(name), prob, h, f))
        rel = np.max(np.abs(got.data - exact.data)) / np.max(np.abs(exact.data))
        assert rel <= 1e-12, name


# ---------------------------------------------------------------------------
# adjoints


def test_adjoint_is_an_involution():
    for name in REG.schemes:
        s = REG.scheme(name)
        assert adjoint(adjoint(s)) == s


def test_adjoint_word_is_reversed():
    lie = REG.scheme("lie")
    assert adjoint(lie).stages == ((0j, 1 + 0j), (1 + 0j, 0j))
    assert adjoint(lie).name == "lie*"
    assert adjoint(adjoint(lie)).name == "lie"


def test_strang_is_self_adjoint():
    assert is_self_adjoint(REG.scheme("strang"))
    assert is_self_adjoint(REG.scheme("strang3"))
    assert not is_self_adjoint(REG.scheme("lie"))
    assert not is_self_adjoint(REG.scheme("comp3c"))
    assert not is_self_adjoint(REG.scheme("emb2c"))


def test_palindromic_flags():
    expected = {
        "lie": True,
        "lie*": True,
        "lie3": True,
        "strang": False,
        "strang3": False,
        "comp3c": False,
        "emb2c": False,
    }
    for name, flag in expected.items():
        assert REG.scheme(name).palindromic == flag, name


def test_adjoint_inverts_the_negated_step():
    # S*(h) composed with S(-h) is the identity; check on a purely
    # pointwise two-operator problem where negative times are legal
    grid = TorusGrid(1, 1.0, 16)
    prob = SplitProblem(
        "reaction_only",
        (lambda t, f: gs_reaction_b_flow(t, f), lambda t, f: gs_reaction_c_flow(t, f)),
        (None, None),
        2,
    )
    rng = np.random.default_rng(8)
    f = Field(grid, 0.4 + 0.5 * rng.random((2, 16)))
    h = 0.05
    for name in ("lie", "strang", "comp3c"):
        s = REG.scheme(name)
        back = compose_step(s, prob, -h, f)
        again = compose_step(adjoint(s), prob, h, back)
        rel = np.max(np.abs(again.data - f.data)) / np.max(np.abs(f.data))
        assert rel <= 1e-12, name


# ---------------------------------------------------------------------------
# pairs


def test_pair_validation_embedded():
    emb2c, comp3c = REG.scheme("emb2c"), REG.scheme("comp3c")
    with pytest.raises(ConfigError):
        SchemePair("x", "embedded", emb2c)  # no controller
    with pytest.raises(ConfigError):
        SchemePair("x", "embedded", emb2c, controller=REG.scheme("strang"))  # order p, not p+1
    with pytest.raises(ConfigError):
        SchemePair("x", "embedded", REG.scheme("lie3"), controller=REG.scheme("strang"))  # arity
    with pytest.raises(ConfigError):
        SchemePair("x", "embedded", emb2c, controller=comp3c, shared_prefix_len=9)
    with pytest.raises(ConfigError):
        # stage 2 of emb2c and comp3c differ, only the first is shared
        SchemePair("x", "embedded", emb2c, controller=comp3c, shared_prefix_len=2)
    ok = SchemePair("x", "embedded", emb2c, controller=comp3c, shared_prefix_len=1)
    assert ok.order == 2


def test_pair_validation_averages():
    # a Milne pair without partner averages with the adjoint, which needs odd order
    with pytest.raises(ConfigError, match="odd order"):
        SchemePair("x", "milne", REG.scheme("strang"))  # even order
    with pytest.raises(ConfigError, match="odd order"):
        SchemePair("x", "milne", REG.scheme("emb2c"))  # even order
    lie_avg = SchemePair("x", "milne", REG.scheme("lie"))
    assert lie_avg.partner == REG.scheme("lie*") and lie_avg.gamma == -1.0
    # palindromic or not, an odd-order integrator averages with its adjoint
    assert REG.scheme("lie").palindromic and not REG.scheme("comp3c").palindromic
    avg = SchemePair("x", "milne", REG.scheme("comp3c"), gamma=-1)
    assert avg.partner.stages == adjoint(REG.scheme("comp3c")).stages and avg.gamma == -1.0
    # "palindromic" and "adjoint_average" computed what a partnerless Milne pair computes
    for kind in ("palindromic", "adjoint_average"):
        with pytest.raises(ConfigError, match=f"unknown pair kind '{kind}'"):
            SchemePair("x", kind, REG.scheme("lie"))


def test_pair_validation_milne():
    lie, lie_adj = REG.scheme("lie"), REG.scheme("lie*")
    with pytest.raises(ConfigError):
        SchemePair("x", "milne", lie, partner=lie_adj)  # gamma missing
    with pytest.raises(ConfigError):
        SchemePair("x", "milne", lie, partner=lie_adj, gamma=1.0)
    for gamma in (float("nan"), complex(-1.0, float("nan")), float("inf")):
        with pytest.raises(ConfigError, match="finite gamma"):
            SchemePair("x", "milne", lie, partner=lie_adj, gamma=gamma)
    with pytest.raises(ConfigError):
        SchemePair("x", "milne", lie, partner=REG.scheme("strang"), gamma=-1.0)  # order
    with pytest.raises(ConfigError):
        SchemePair("x", "bogus_kind", lie)


def test_pair_recipe_per_kind():
    # every kind is a second scheme plus an optional Milne weight, gamma
    emb = REG.pair("emb23c")
    assert emb.second is emb.controller and emb.gamma is None
    milne = REG.pair("lie-milne")
    assert milne.second is REG.scheme("lie*") and milne.gamma == -1.0
    for name in ("lie-avg", "comp3c-avg", "lie3-avg"):
        pair = REG.pair(name)
        assert pair.second == adjoint(pair.integrator) and pair.gamma == -1.0
        assert pair.partner is pair.second and pair.shared_prefix_len == 0
    g = milne.gamma
    assert (-g / (1.0 - g), 1.0 / (1.0 - g)) == (0.5, 0.5)  # exact average weights


def test_average_pair_ignores_stray_keys():
    # without a partner the second scheme is the adjoint, never a stray key
    lie, strang = REG.scheme("lie"), REG.scheme("strang")
    avg = SchemePair("x", "milne", lie, controller=strang, shared_prefix_len=1)
    assert avg.second == REG.scheme("lie*") and avg.partner == avg.second
    assert avg.shared_prefix_len == 0 and avg.gamma == -1.0
    # a stray gamma is refused, not replaced by -1: the adjoint's weight is -1 for odd p
    for gamma in (2.0, -0.5, complex(-1.0, 0.5), float("nan")):
        with pytest.raises(ConfigError, match="gamma -1"):
            SchemePair("x", "milne", lie, gamma=gamma)


def test_pair_validation_second_scheme_arity():
    with pytest.raises(ConfigError, match="arity"):
        SchemePair("x", "milne", REG.scheme("lie"), partner=REG.scheme("lie3"), gamma=-1.0)


def test_degenerate_pair_warns():
    lie = REG.scheme("lie")
    with pytest.warns(DegeneratePairWarning):
        SchemePair("degen", "milne", lie, partner=lie, gamma=-1.0)
    # a self-adjoint stage set declared odd-order slips past the order
    # check but the adjoint coincides with the scheme: warn, est = 0
    fake = SplittingScheme("fake_odd", 1, REG.scheme("strang").stages)
    with pytest.warns(DegeneratePairWarning):
        SchemePair("degen2", "milne", fake)


# ---------------------------------------------------------------------------
# registry


def test_registry_rejects_duplicates():
    reg = builtin_registry()
    with pytest.raises(SchemeFileError):
        reg.add(SplittingScheme("strang", 2, ((0.5, 1.0), (0.5, 0.0))))
    with pytest.raises(SchemeFileError):
        reg.add_pair(SchemePair("lie-avg", "milne", reg.scheme("lie")))


def test_registry_unknown_lookup_lists_choices():
    with pytest.raises(ConfigError, match="strang"):
        REG.scheme("nope")
    with pytest.raises(ConfigError, match="lie-avg"):
        REG.pair("nope")


def test_reference_scheme_selection():
    assert REG.reference_scheme(2).name == "strang"
    assert REG.reference_scheme(3).name == "strang3"
    # loaded schemes do not displace strang: none has fewer flows, and a tie
    # goes to the first registered
    reg = builtin_registry()
    reg.add(SplittingScheme("strang-b", 2, ((0.0, 0.5), (1.0, 0.5))))
    assert is_self_adjoint(reg.scheme("strang-b"))
    assert reg.reference_scheme(2).name == "strang"
    # no candidate: lie is not self-adjoint, comp3c is complex, and Yoshida's
    # real fourth-order triple jump runs a negative A-time
    w1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    w0 = 1.0 - 2.0 * w1
    yoshida = SplittingScheme("yoshida4", 4, ((w1 / 2, w1), ((w1 + w0) / 2, w0),
                                              ((w0 + w1) / 2, w1), (w1 / 2, 0.0)))
    assert is_self_adjoint(yoshida) and not yoshida.parabolic_safe
    reg = SchemeRegistry()
    for scheme in (REG.scheme("lie"), REG.scheme("comp3c"), yoshida):
        reg.add(scheme)
    with pytest.raises(ConfigError, match="arity 2"):
        reg.reference_scheme(2)
    with pytest.raises(ConfigError, match="arity 3"):
        reg.reference_scheme(3)
    # among candidates the fewest flows win: two Strang half steps (5
    # flows) until the B-first Strang step (3 flows) is registered
    reg.add(SplittingScheme("strang-x2", 2, ((0.25, 0.5), (0.5, 0.5), (0.25, 0.0))))
    assert reg.reference_scheme(2).name == "strang-x2"
    reg.add(SplittingScheme("strang-b", 2, ((0.0, 0.5), (1.0, 0.5))))
    assert reg.reference_scheme(2).name == "strang-b"


# ---------------------------------------------------------------------------
# scheme files


def _custom_schemes():
    s1 = SplittingScheme("half2", 2, ((0.5, 1.0), (0.5, 0.0)))
    s2 = SplittingScheme(
        "twojump", 3, ((GAMMA3 / 2, GAMMA3), (0.5, 1 - GAMMA3), ((1 - GAMMA3) / 2, 0.0))
    )
    return s1, s2


def test_scheme_file_round_trip(tmp_path):
    s1, s2 = _custom_schemes()
    pairs = [
        SchemePair("tj-avg", "milne", s2),
        SchemePair("tj-milne", "milne", s2, partner=adjoint(s2), gamma=-1.0),
    ]
    path = tmp_path / "custom.json"
    save_scheme_file(path, schemes=[s1, s2, adjoint(s2)], pairs=pairs)

    reg = builtin_registry()
    load_scheme_file(reg, path)
    got1, got2 = reg.scheme("half2"), reg.scheme("twojump")
    assert got1.stages == s1.stages and got1.order == 2
    assert got2.stages == s2.stages  # complex coefficients survive exactly
    p = reg.pair("tj-milne")
    assert p.kind == "milne" and p.gamma == -1.0
    assert p.partner.stages == adjoint(s2).stages
    assert reg.pair("tj-avg").partner.stages == adjoint(s2).stages

    # a second save of the loaded objects reproduces the file byte for byte
    path2 = tmp_path / "again.json"
    save_scheme_file(path2, schemes=[got1, got2, reg.scheme("twojump*")], pairs=[reg.pair("tj-avg"), p])
    assert path.read_bytes() == path2.read_bytes()


def test_scheme_file_can_reference_builtins(tmp_path):
    path = tmp_path / "pair_only.json"
    path.write_text(
        json.dumps(
            {
                "pairs": [
                    {"name": "my-milne", "kind": "milne", "integrator": "lie",
                     "partner": "lie*", "gamma": -1.0}
                ]
            }
        )
    )
    reg = builtin_registry()
    load_scheme_file(reg, path)
    assert reg.pair("my-milne").integrator.name == "lie"


def test_empty_scheme_file_is_a_noop(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    reg = builtin_registry()
    load_scheme_file(reg, path)
    assert set(reg.schemes) == set(REG.schemes)


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2]",  # top level not an object
        '{"spam": []}',  # unknown top-level key
        '{"schemes": [{"name": "x", "order": 1, "stages": [[0.5, 1.0]]}]}',  # bad sums
        '{"schemes": [{"name": "x", "order": 1, "stages": [[1.0, 1.0]], "extra": 1}]}',
        '{"schemes": [{"name": "x", "order": 1, "stages": [["a", 1.0]]}]}',  # bad number
        '{"schemes": [{"name": "x", "order": 1, "stages": [[[1, 2, 3], 1.0]]}]}',
        '{"schemes": [{"name": "x", "order": 2, "stages": [[1.0, 1.0]],'
        ' "palindromic": false}]}',  # computed True
        '{"schemes": [{"name": "x", "order": 1, "stages": [[1.0, 1.0]],'
        ' "parabolic_safe": false}]}',  # computed True
        '{"pairs": [{"name": "x", "kind": "milne", "integrator": "lie",'
        ' "partner": "ghost", "gamma": -1.0}]}',  # dangling reference
        '{"pairs": [{"name": "x", "kind": "embedded", "integrator": "emb2c"}]}',
        '{"pairs": [{"name": "x", "kind": "sideways", "integrator": "lie"}]}',
        '{"pairs": [{"name": "x", "kind": "palindromic", "integrator": "comp3c"}]}',
        '{"schemes": [{"name": "strang", "order": 2,'
        ' "stages": [[0.5, 1.0], [0.5, 0.0]]}]}',  # collides with builtin
        "{not json",
    ],
)
def test_scheme_file_grammar_violations(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(SchemeFileError):
        load_scheme_file(builtin_registry(), path)


_ONE = '"stages": [[1.0, 1.0]]'
_EMB = '"kind": "embedded", "integrator": "emb2c", "controller": "comp3c"'


@pytest.mark.parametrize(
    "doc",
    [
        '{"schemes": 5}',
        '{"pairs": {"a": 1}}',
        '{"schemes": [1]}',
        '{"pairs": ["lie-avg"]}',
        '{"schemes": [{"name": "x", "order": "two", %s}]}' % _ONE,
        '{"schemes": [{"name": "x", "order": 1.5, %s}]}' % _ONE,
        '{"schemes": [{"name": "x", "order": true, %s}]}' % _ONE,
        '{"schemes": [{"name": ["x"], "order": 1, %s}]}' % _ONE,
        '{"schemes": [{"name": "x", "order": 1, "stages": [[true, 1.0]]}]}',
        '{"pairs": [{"name": "x", %s, "shared_prefix_len": "one"}]}' % _EMB,
        '{"pairs": [{"name": "x", %s, "shared_prefix_len": null}]}' % _EMB,
        '{"pairs": [{"name": "x", "kind": "milne", "integrator": "lie",'
        ' "partner": "lie*", "gamma": true}]}',
        # JSON's NaN literal parses; a NaN coefficient or gamma is refused
        '{"schemes": [{"name": "x", "order": 1, "stages": [[NaN, 1.0]]}]}',
        '{"pairs": [{"name": "x", "kind": "milne", "integrator": "lie",'
        ' "partner": "lie*", "gamma": NaN}]}',
        # a JSON integer too large for a float used to exit 1 with a traceback
        pytest.param('{"schemes": [{"name": "x", "order": 1, "stages": [[%d, 1.0]]}]}'
                     % 10**400, id="stage-10**400"),
        pytest.param('{"pairs": [{"name": "x", "kind": "milne", "integrator": "lie",'
                     ' "partner": "lie*", "gamma": %d}]}' % 10**400, id="gamma-10**400"),
        # JSON that Python's parser refuses past its limits used to exit 1
        pytest.param('{"schemes": [{"name": "x", "order": %s}]}' % ("1" * 5000), id="5000-digits"),
        pytest.param('{"schemes": %s%s}' % ("[" * 100000, "]" * 100000), id="deep-nesting"),
        # a builtin's name: the duplicate used to be reported without the file
        '{"schemes": [{"name": "strang", "order": 2, "stages": [[0.5, 1.0], [0.5, 0.0]]}]}',
        # a flag is a JSON boolean: "no" and [0] used to be read as true
        '{"schemes": [{"name": "x", "order": 1, %s, "parabolic_safe": "no"}]}' % _ONE,
        '{"schemes": [{"name": "x", "order": 1, %s, "palindromic": [0]}]}' % _ONE,
    ],
)
def test_malformed_scheme_file_values_exit_2_with_one_prefix(tmp_path, capsys, doc):
    from splitstep.cli import main

    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(SchemeFileError):
        load_scheme_file(builtin_registry(), path)
    assert main(["schemes", "--schemes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert err.count(f"{path}:") == 1, err


def test_scheme_file_error_names_its_entry_once(tmp_path):
    path = tmp_path / "sums.json"
    path.write_text(json.dumps({
        "schemes": [{"name": "x", "order": 1, "stages": [[0.5, 1.0]]}],
    }))
    with pytest.raises(SchemeFileError) as info:
        load_scheme_file(builtin_registry(), path)
    assert str(info.value) == (
        f"{path}: scheme 'x': slot 0 coefficients sum to (0.5+0j), expected 1")
    path.write_text(json.dumps({
        "pairs": [{"name": "y", "kind": "milne", "integrator": "strang"}],
    }))
    with pytest.raises(SchemeFileError) as info:
        load_scheme_file(builtin_registry(), path)
    assert str(info.value) == (f"{path}: pair 'y': a Milne pair without partner needs odd "
                               "order and gamma -1, got order 2, gamma None")
    # a taken name used to be named twice: "scheme 'strang': duplicate scheme name 'strang'"
    path.write_text(json.dumps({
        "schemes": [{"name": "strang", "order": 2, "stages": [[0.5, 1.0], [0.5, 0.0]]}],
    }))
    with pytest.raises(SchemeFileError) as info:
        load_scheme_file(builtin_registry(), path)
    assert str(info.value) == f"{path}: scheme 'strang': duplicate scheme name"
    # built directly, a scheme or a pair still names itself, and so does a duplicate
    with pytest.raises(ConfigError, match=r"^x: slot 0 coefficients"):
        SplittingScheme("x", 1, ((0.5, 1.0),))
    with pytest.raises(ConfigError, match=r"^y: a Milne pair without partner"):
        SchemePair("y", "milne", REG.scheme("strang"))
    with pytest.raises(SchemeFileError, match=r"^strang: duplicate scheme name$"):
        builtin_registry().add(REG.scheme("strang"))
    with pytest.raises(SchemeFileError, match=r"^lie-avg: duplicate pair name$"):
        builtin_registry().add_pair(REG.pair("lie-avg"))


def test_embedded_pair_file_round_trip(tmp_path):
    pair = SchemePair("emb23c-copy", "embedded", REG.scheme("emb2c"),
                      controller=REG.scheme("comp3c"), shared_prefix_len=1)
    path = tmp_path / "emb.json"
    save_scheme_file(path, pairs=[pair])

    reg = builtin_registry()
    load_scheme_file(reg, path)
    got = reg.pair("emb23c-copy")
    assert got.kind == "embedded" and got.integrator is reg.scheme("emb2c")
    assert got.controller is reg.scheme("comp3c") and got.shared_prefix_len == 1
    assert (got.prefix_word, got.integrator_word, got.second_word) == (
        pair.prefix_word, pair.integrator_word, pair.second_word
    )

    again = tmp_path / "again.json"
    save_scheme_file(again, pairs=[got])
    assert again.read_bytes() == path.read_bytes()


def test_scheme_file_missing_path():
    with pytest.raises(SchemeFileError):
        load_scheme_file(builtin_registry(), "/no/such/file.json")


def test_saved_scheme_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "lie.json"
    save_scheme_file(path, schemes=[REG.scheme("lie")])
    assert path.read_bytes() == b"""\
{
  "schemes": [
    {
      "name": "lie",
      "order": 1,
      "stages": [
        [
          1.0,
          1.0
        ]
      ],
      "parabolic_safe": true,
      "palindromic": true
    }
  ]
}
"""


# ---------------------------------------------------------------------------
# the table of pair kinds: what a file may give each kind, and how it lists


@pytest.mark.parametrize(
    "entry, key",
    [
        ({"kind": "embedded", "integrator": "emb2c", "controller": "comp3c",
          "gamma": -1.0}, "gamma"),
        ({"kind": "milne", "integrator": "lie", "partner": "lie*", "gamma": -1.0,
          "shared_prefix_len": 1}, "shared_prefix_len"),
        ({"kind": "milne", "integrator": "comp3c", "gamma": 0.5,
          "controller": "comp3c"}, "controller"),
        ({"kind": "embedded", "integrator": "emb2c", "controller": "comp3c",
          "partner": "lie*"}, "partner"),
    ],
)
def test_pair_entry_with_a_key_its_kind_does_not_take_exits_2(tmp_path, capsys, entry, key):
    from splitstep.cli import main

    path = tmp_path / "stray.json"
    path.write_text(json.dumps({"pairs": [{"name": "stray", **entry}]}))
    with pytest.raises(SchemeFileError, match=key):
        load_scheme_file(builtin_registry(), path)
    assert main(["schemes", "--schemes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"{path}: pair 'stray': " in err and repr(key) in err, err


def test_palindromic_is_no_pair_kind(tmp_path, capsys):
    from splitstep.cli import main

    path = tmp_path / "pal.json"
    path.write_text(json.dumps({"pairs": [{"name": "x", "kind": "palindromic",
                                           "integrator": "lie"}]}))
    assert main(["schemes", "--schemes", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path}: pair 'x': pair.kind: " in err, err
    assert "one of ['embedded', 'milne'], got 'palindromic'" in err, err


def test_adjoint_average_entry_is_a_partnerless_milne_pair_of_odd_order(tmp_path, capsys):
    from splitstep.cli import main

    path = tmp_path / "avg.json"
    for entry, message in [
        ({"kind": "adjoint_average", "integrator": "lie"},
         "pair.kind: expected a pair kind, one of ['embedded', 'milne'], got 'adjoint_average'"),
        ({"kind": "milne", "integrator": "strang"}, "needs odd order and gamma -1, got order 2"),
        ({"kind": "milne", "integrator": "lie", "gamma": 0.5}, "got order 1, gamma 0.5"),
        ({"kind": "milne", "integrator": "comp3c", "gamma": [-1.0, 0.5]}, "gamma (-1+0.5j)"),
    ]:
        path.write_text(json.dumps({"pairs": [{"name": "x", **entry}]}))
        assert main(["schemes", "--schemes", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert f"{path}: pair 'x': " in err and message in err, err
    # without a gamma, or with gamma -1, an odd-order entry averages with the adjoint
    for gamma in ({}, {"gamma": -1}, {"gamma": [-1.0, 0.0]}):
        path.write_text(json.dumps({"pairs": [
            {"name": "x", "kind": "milne", "integrator": "comp3c", **gamma}]}))
        reg = builtin_registry()
        load_scheme_file(reg, path)
        assert str(reg.pair("x")) == "x: milne over comp3c (order 3), partner comp3c*, gamma -1.0"


def test_str_of_every_builtin_is_its_listing_line(capsys):
    from splitstep.cli import main

    assert main(["schemes"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "schemes:", *(f"  {REG.schemes[name]}" for name in sorted(REG.schemes)),
        "pairs:", *(f"  {REG.pairs[name]}" for name in sorted(REG.pairs)),
    ]
    assert str(REG.scheme("strang")) == (
        "strang: order 2, arity 2, 2 stages, 3 flows [parabolic-safe]")
    assert str(REG.pair("emb23c")) == (
        "emb23c: embedded over emb2c (order 2), controller comp3c, shared prefix 1")
    assert str(REG.pair("lie-avg")) == "lie-avg: milne over lie (order 1), partner lie*, gamma -1.0"


def test_milne_pair_with_complex_gamma_lists_its_gamma_as_a_python_complex(tmp_path, capsys):
    from splitstep.cli import main

    path = tmp_path / "cmilne.json"
    path.write_text(json.dumps({"pairs": [{"name": "cmilne", "kind": "milne", "integrator": "lie",
                                           "partner": "lie*", "gamma": [-1.0, 0.5]}]}))
    assert main(["schemes", "--schemes", str(path)]) == 0
    line = "cmilne: milne over lie (order 1), partner lie*, gamma (-1+0.5j)"
    assert f"  {line}\n" in capsys.readouterr().out
    reg = builtin_registry()
    load_scheme_file(reg, path)
    assert str(reg.pair("cmilne")) == line


def test_saved_pair_of_every_kind_bytes_are_pinned(tmp_path):
    pairs = [
        SchemePair("e", "embedded", REG.scheme("emb2c"), controller=REG.scheme("comp3c"),
                   shared_prefix_len=1),
        SchemePair("m", "milne", REG.scheme("lie"), partner=REG.scheme("lie*"),
                   gamma=complex(-1.0, 0.5)),
        SchemePair("a", "milne", REG.scheme("comp3c")),  # the adjoint average
    ]
    path = tmp_path / "pairs.json"
    save_scheme_file(path, pairs=pairs)
    assert path.read_bytes() == b"""\
{
  "pairs": [
    {
      "name": "e",
      "kind": "embedded",
      "integrator": "emb2c",
      "controller": "comp3c",
      "shared_prefix_len": 1
    },
    {
      "name": "m",
      "kind": "milne",
      "integrator": "lie",
      "partner": "lie*",
      "gamma": [
        -1.0,
        0.5
      ]
    },
    {
      "name": "a",
      "kind": "milne",
      "integrator": "comp3c"
    }
  ]
}
"""
    reg = builtin_registry()
    load_scheme_file(reg, path)
    assert [str(reg.pair(p.name)) for p in pairs] == [str(p) for p in pairs]
    for pair in pairs:
        assert_same_estimates(reg.pair(pair.name), pair)


def assert_same_estimates(got, pair):
    """``got`` steps and estimates bitwise as ``pair`` does."""
    grid = TorusGrid(1, 1.0, 16)
    if pair.integrator.arity == 2:
        prob = linear_problem(grid, diffusion=0.2, potential=lambda x: np.cos(np.pi * x))
        f = initial_condition("random_smooth", grid, m=1, seed=3)
    else:
        prob, f = gray_scott_abc_problem(grid), initial_condition("gs_bump", grid)
    a, b = (estimate_step(p, prob, 0.05, f) for p in (pair, got))
    for u, v in ((a.u_next, b.u_next), (a.u_control, b.u_control)):
        assert u.space == v.space and np.array_equal(u.data, v.data), pair.name
    assert (a.est_norm, a.flow_evals) == (b.est_norm, b.flow_evals), pair.name


def test_every_builtin_pair_saved_under_a_fresh_name_loads_back(tmp_path):
    # a saved file names only registered schemes: comp3c-avg's partner comp3c* is none
    reg = builtin_registry()
    pairs = [SchemePair("file-" + p.name, p.kind, p.integrator, controller=p.controller,
                        partner=p.partner, gamma=p.gamma, shared_prefix_len=p.shared_prefix_len)
             for p in reg.pairs.values()]
    pairs.append(SchemePair("file-cmilne", "milne", reg.scheme("lie"),
                            partner=reg.scheme("lie*"), gamma=complex(-1.0, 0.5)))
    path = tmp_path / "pairs.json"
    save_scheme_file(path, pairs=pairs)
    saved = {e["name"]: e for e in json.loads(path.read_text())["pairs"]}
    assert "partner" not in saved["file-comp3c-avg"] and "gamma" not in saved["file-lie-milne"]
    assert saved["file-cmilne"]["partner"] == "lie*"  # its gamma is not the default
    load_scheme_file(reg, path)
    for pair in pairs:
        assert str(reg.pair(pair.name)) == str(pair)
        assert_same_estimates(reg.pair(pair.name), pair)
