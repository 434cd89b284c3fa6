"""Splitting schemes: coefficient words, composition, adjoints, registry.

A scheme of ``arity`` 2 applies, per stage j and step h,

    phi_A(a_j*h)  then  phi_B(b_j*h),        j = 1..s,

(arity 3 appends phi_C(c_j*h)), so one step is the composition
phi_B(b_s h) o phi_A(a_s h) o ... o phi_B(b_1 h) o phi_A(a_1 h).  Zero
coefficients are skipped exactly; no flow call is made for them.

The adjoint S*(h) = S(-h)^(-1) of a splitting is again a splitting with
the same coefficients in reversed application order, so it is realized
purely by resequencing.  Self-adjoint schemes (Strang) reproduce
themselves; palindromic schemes reproduce themselves with the operator
roles exchanged.

Complex coefficients are first-class.  A scheme is parabolic-safe when
every a_j has nonnegative real part, so that diffusive A-flows are never
evaluated backward.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DegeneratePairWarning, SchemeFileError
from .spectral import (Field, _as_is, _bool, _checked, _integer, _number, _only, _read_object,
                       _value, _write_lines)
from .problems import SplitProblem

__all__ = [
    "SplittingScheme",
    "SchemePair",
    "SchemeRegistry",
    "compose_step",
    "apply_word",
    "adjoint",
    "is_self_adjoint",
    "builtin_registry",
    "load_scheme_file",
    "save_scheme_file",
    "GAMMA3",
]

_CONSISTENCY_TOL = 1e-12

# Parameter of the complex two-jump composition of Strang steps:
# S2(g*h) o S2((1-g)*h) cancels the h^3 error when g^3 + (1-g)^3 = 0,
# giving a parabolic-safe third-order scheme.
GAMMA3 = 0.5 + 0.5j / np.sqrt(3.0)


@dataclass(frozen=True)
class SplittingScheme:
    """Named splitting with per-stage coefficient tuples.

    ``stages`` is a tuple of (a_j, b_j) or (a_j, b_j, c_j) complex
    tuples.  Coefficient sums over each slot must equal 1 to 1e-12.
    ``order`` is the declared classical order p.
    """

    name: str
    order: int
    stages: tuple

    def __post_init__(self):
        if self.order < 1:
            raise ConfigError(f"{self.name}: order must be >= 1, got {self.order}")
        if not self.stages:
            raise ConfigError(f"{self.name}: needs at least one stage")
        widths = {len(st) for st in self.stages}
        if len(widths) != 1 or widths.pop() not in (2, 3):
            raise ConfigError(f"{self.name}: stages must be uniform pairs or triples")
        stages = tuple(tuple(complex(c) for c in st) for st in self.stages)
        object.__setattr__(self, "stages", stages)
        for slot in range(self.arity):
            total = sum(st[slot] for st in stages)
            if not abs(total - 1.0) <= _CONSISTENCY_TOL:  # NaN fails too
                raise ConfigError(
                    f"{self.name}: slot {slot} coefficients sum to {total}, expected 1"
                )

    @property
    def arity(self) -> int:
        return len(self.stages[0])

    @property
    def s(self) -> int:
        return len(self.stages)

    @property
    def parabolic_safe(self) -> bool:
        """True when all a_j (slot 0) have nonnegative real part."""
        return all(st[0].real >= 0.0 for st in self.stages)

    @property
    def is_complex(self) -> bool:
        return any(c.imag != 0.0 for st in self.stages for c in st)

    def word(self, start: int = 0, stop: Optional[int] = None) -> tuple:
        """Nonzero (slot, coefficient) letters of stages[start:stop] in application order."""
        out = []
        for st in self.stages[start:stop]:
            for slot, c in enumerate(st):
                if c != 0:
                    out.append((slot, c))
        return tuple(out)

    @property
    def flow_evals(self) -> int:
        """Flow applications per step (zero coefficients cost nothing)."""
        return len(self.word())

    @property
    def palindromic(self) -> bool:
        """True when reading the word backwards and exchanging the
        operator roles reproduces the scheme, i.e. the adjoint is the
        scheme itself with A and B (and C) relabeled."""
        w = self.word()
        arity = self.arity
        swapped = tuple((arity - 1 - slot, c) for slot, c in reversed(w))
        return swapped == w

    def __str__(self):
        """This scheme's line in the ``splitstep schemes`` listing."""
        flags = ", ".join(flag for flag, on in (("parabolic-safe", self.parabolic_safe),
                          ("palindromic", self.palindromic), ("complex", self.is_complex)) if on)
        return (f"{self.name}: order {self.order}, arity {self.arity}, {self.s} stages, "
                f"{self.flow_evals} flows" + (f" [{flags}]" if flags else ""))


def _pack_word(word, arity) -> tuple:
    """Pack (slot, coeff) letters into canonical stage tuples."""
    stages = []
    current = {}
    last = -1
    for slot, c in word:
        if slot <= last:
            stages.append(tuple(current.get(i, 0j) for i in range(arity)))
            current = {}
        current[slot] = c
        last = slot
    if current:
        stages.append(tuple(current.get(i, 0j) for i in range(arity)))
    return tuple(stages)


def adjoint(scheme: SplittingScheme) -> SplittingScheme:
    """Resequenced coefficients realizing S*(h) = S(-h)^(-1).

    Reversing the flow word and keeping the same coefficients inverts
    the step taken with negated time; no flow is ever run backward.
    """
    word = tuple(reversed(scheme.word()))
    name = scheme.name[:-1] if scheme.name.endswith("*") else scheme.name + "*"
    return SplittingScheme(name=name, order=scheme.order, stages=_pack_word(word, scheme.arity))


def is_self_adjoint(scheme: SplittingScheme) -> bool:
    return adjoint(scheme).stages == scheme.stages


@lru_cache(maxsize=64)
def _real_letters(word) -> Optional[tuple]:
    """The word with float coefficients if every one is real, else None."""
    if any(c.imag != 0 for _, c in word):
        return None
    return tuple((slot, c.real) for slot, c in word)


def apply_word(word, prob: SplitProblem, h: complex, f: Field):
    """Apply a (slot, coeff) word with step h; returns (state, flow_evals).

    A real state (``Field.is_real``) under a word whose coefficients and h
    are all real stays real: every flow gets a float time.  Otherwise the
    times are complex, and the first flow widens a real state.
    """
    if f.is_real and not isinstance(h, complex):
        word = _real_letters(word) or word
    n_evals = 0
    for slot, c in word:
        t = c * h
        if t == 0:
            continue
        f = prob.flows[slot](t, f)
        n_evals += 1
    return f, n_evals


def _same_arity(a, b, where: str = "") -> None:
    """Refuse ``a`` (a scheme) beside ``b`` (a problem or scheme) of another arity."""
    if a.arity != b.arity:
        raise ConfigError(f"{where}{a.name} has arity {a.arity}, {b.name} has arity {b.arity}")


def compose_step(scheme: SplittingScheme, prob: SplitProblem, h: complex, f: Field) -> Field:
    """One step u1 = S(h, u0) of the splitting applied to the problem."""
    _same_arity(scheme, prob)
    out, _ = apply_word(scheme.word(), prob, h, f)
    return out


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------

# Each pair kind's fields besides its integrator, in file order, with their labels
# in the listing (str() of a pair); the loader and save_scheme_file read it too.
_PAIR_FIELDS = {
    "embedded": (("controller", "controller"), ("shared_prefix_len", "shared prefix")),
    "milne": (("partner", "partner"), ("gamma", "gamma"))}


def _named(value):  # a pair field as listed and saved: a scheme by its name
    return value.name if isinstance(value, SplittingScheme) else value


@dataclass(frozen=True)
class SchemePair:
    """An integrator plus the recipe for its local error estimate.

    Every kind is one recipe: the integrator's first ``shared_prefix_len``
    stages run once, the integrator and the ``second`` scheme finish from
    there, and the control value is the second scheme's value, or, when
    ``gamma`` is set, its Milne combination with the integrator's.
    An embedded pair clears ``gamma`` to None, and a Milne pair clears
    the prefix to 0.

    kind = "embedded": second = controller of order p+1; only this kind
                       shares a prefix.
    kind = "milne":    second = partner of order p whose leading error
                       constant is gamma times the integrator's; requires
                       a finite gamma != 1.  Without a partner it takes
                       the integrator's adjoint and gamma = -1, i.e.
                       control (S + S*)/2, which requires odd order p.
    """

    name: str
    kind: str
    integrator: SplittingScheme
    controller: Optional[SplittingScheme] = None
    partner: Optional[SplittingScheme] = None
    gamma: Optional[complex] = None
    shared_prefix_len: int = 0
    second: SplittingScheme = field(init=False, repr=False, compare=False)
    # the recipe's words: the shared prefix, then each scheme's letters after it
    prefix_word: tuple = field(init=False, repr=False, compare=False)
    integrator_word: tuple = field(init=False, repr=False, compare=False)
    second_word: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _PAIR_FIELDS:
            raise ConfigError(f"{self.name}: unknown pair kind {self.kind!r}")
        p = self.integrator.order
        embedded = self.kind == "embedded"
        if not embedded and self.partner is None:  # the adjoint average (S + S*)/2:
            # for odd p, and only then, the leading error of S* is -1 times S's
            if p % 2 == 0 or self.gamma not in (None, -1):
                raise ConfigError(f"{self.name}: a Milne pair without partner needs odd order "
                                  f"and gamma -1, got order {p}, gamma {self.gamma}")
            object.__setattr__(self, "partner", adjoint(self.integrator))
            object.__setattr__(self, "gamma", -1.0)
        role, q = ("controller", p + 1) if embedded else ("partner", p)
        second = getattr(self, role)
        if second is None:
            raise ConfigError(f"{self.name}: {self.kind} pair needs a {role}")
        if second.order != q:
            raise ConfigError(f"{self.name}: {role} order {second.order}, expected {q}")
        _same_arity(second, self.integrator, f"{self.name}: ")
        if embedded:
            object.__setattr__(self, "gamma", None)
        else:
            object.__setattr__(self, "shared_prefix_len", 0)
        L, g = self.shared_prefix_len, self.gamma
        if L < 0 or L > min(self.integrator.s, second.s):
            raise ConfigError(f"{self.name}: shared_prefix_len {L} out of range")
        if self.integrator.stages[:L] != second.stages[:L]:
            raise ConfigError(f"{self.name}: first {L} stages of integrator and {role} differ")
        if not embedded and (g is None or g == 1 or not np.isfinite(g)):
            raise ConfigError(f"{self.name}: Milne pair needs a finite gamma != 1")
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "prefix_word", self.integrator.word(0, L))
        object.__setattr__(self, "integrator_word", self.integrator.word(L))
        object.__setattr__(self, "second_word", second.word(L))
        if second.stages == self.integrator.stages:
            warnings.warn(
                f"{self.name}: {second.name} coincides with the integrator; the error "
                "estimate will be identically zero",
                DegeneratePairWarning,
                stacklevel=2,
            )

    @property
    def order(self) -> int:
        return self.integrator.order

    def __str__(self):
        """This pair's line in the ``splitstep schemes`` listing."""
        extra = "".join(f", {label} {_named(getattr(self, key))}"
                        for key, label in _PAIR_FIELDS[self.kind])
        return f"{self.name}: {self.kind} over {self.integrator.name} (order {self.order}){extra}"


# ---------------------------------------------------------------------------
# Registry and built-ins
# ---------------------------------------------------------------------------

class SchemeRegistry:
    """Name-indexed schemes and pairs; duplicate names are refused."""

    def __init__(self):
        self.schemes = {}
        self.pairs = {}

    @staticmethod
    def _put(table: dict, what: str, item):
        if item.name in table:
            # the name leads, as in SchemePair's errors, so a scheme file names it once
            raise SchemeFileError(f"{item.name}: duplicate {what} name")
        table[item.name] = item

    @staticmethod
    def _get(table: dict, what: str, name: str):
        try:
            return table[name]
        except (KeyError, TypeError):  # a list or object names nothing either
            raise ConfigError(f"unknown {what} {name!r}; available: {sorted(table)}") from None

    def add(self, scheme: SplittingScheme):
        self._put(self.schemes, "scheme", scheme)

    def add_pair(self, pair: SchemePair):
        self._put(self.pairs, "pair", pair)

    def scheme(self, name: str) -> SplittingScheme:
        return self._get(self.schemes, "scheme", name)

    def pair(self, name: str) -> SchemePair:
        return self._get(self.pairs, "pair", name)

    def reference_scheme(self, arity: int = 2) -> SplittingScheme:
        """Base scheme of reference solves: the one with the fewest flows
        that is self-adjoint, parabolic-safe and real (``strang`` for two
        operators, ``strang3`` for three; the first registered wins a tie).

        Self-adjoint, because its error expands in even powers of h, which
        the reference's Richardson tableau turns into two orders per
        column; parabolic-safe, because a negative A-time runs diffusion
        backward; real, because a complex word costs complex states.  No
        consistent self-adjoint scheme has fewer flows than Strang, so a
        scheme file loaded after the builtins cannot displace it.
        """
        candidates = [s for s in self.schemes.values() if s.arity == arity
                      and s.parabolic_safe and not s.is_complex and is_self_adjoint(s)]
        if not candidates:
            raise ConfigError(f"no self-adjoint, parabolic-safe real scheme of arity {arity}")
        return min(candidates, key=lambda s: s.flow_evals)


def _emb2c_stages():
    g = GAMMA3
    a2 = 0.3
    b2 = -((g - 1.0) ** 2) / (g - 1.4)
    return (
        (g / 2.0, g),
        (a2, b2),
        (1.0 - g / 2.0 - a2, 1.0 - g - b2),
    )


def builtin_registry() -> SchemeRegistry:
    """Registry preloaded with the built-in schemes and pairs.

    lie / lie* (order 1), strang (order 2), comp3c (order 3, complex
    two-jump of Strang steps), emb2c (order 2, complex, sharing its first
    stage with comp3c), plus lie3/strang3 for three-operator splits, and
    the canonical estimator pairs over them.
    """
    reg = SchemeRegistry()
    g = GAMMA3

    lie = SplittingScheme("lie", 1, ((1.0, 1.0),))
    lie_adj = adjoint(lie)
    strang = SplittingScheme("strang", 2, ((0.5, 1.0), (0.5, 0.0)))
    comp3c = SplittingScheme(
        "comp3c", 3, ((g / 2.0, g), (0.5, 1.0 - g), ((1.0 - g) / 2.0, 0.0))
    )
    emb2c = SplittingScheme("emb2c", 2, _emb2c_stages())
    lie3 = SplittingScheme("lie3", 1, ((1.0, 1.0, 1.0),))
    strang3 = SplittingScheme(
        "strang3", 2, ((0.5, 0.5, 1.0), (0.0, 0.5, 0.0), (0.5, 0.0, 0.0))
    )

    for s in (lie, lie_adj, strang, comp3c, emb2c, lie3, strang3):
        reg.add(s)

    reg.add_pair(SchemePair("lie-avg", "milne", lie))
    reg.add_pair(SchemePair("lie-milne", "milne", lie, partner=lie_adj, gamma=-1.0))
    reg.add_pair(SchemePair("comp3c-avg", "milne", comp3c))
    reg.add_pair(SchemePair("emb23c", "embedded", emb2c, controller=comp3c, shared_prefix_len=1))
    reg.add_pair(SchemePair("lie3-avg", "milne", lie3))
    return reg


# ---------------------------------------------------------------------------
# Scheme files
#
# JSON with two optional top-level arrays, "schemes" and "pairs".  Every
# complex number is either a plain number (imaginary part 0) or a
# two-element array [re, im].  Scheme entries:
#
#   {"name": str, "order": int,
#    "stages": [[a_1, b_1(, c_1)], [a_2, b_2(, c_2)], ...],
#    "parabolic_safe": bool (optional, validated),
#    "palindromic": bool (optional, validated)}
#
# Pair entries name registered schemes (from the same file or built-ins):
#
#   {"name": str, "kind": "embedded", "integrator": str, "controller": str,
#    "shared_prefix_len": int (optional, default 0)}
#   {"name": str, "kind": "milne", "integrator": str,
#    "partner": str (optional, default the integrator's adjoint),
#    "gamma": number | [re, im] (-1 and optional without partner)}
# An entry takes only its kind's keys, each read through spectral's _value.
# ---------------------------------------------------------------------------

def _parse_complex(x):
    # real values stay float so loaded schemes print like builtins
    re, im = map(_number, x if isinstance(x, list) and len(x) == 2 else [x, 0])
    return re if im == 0 else complex(re, im)


def _dump_complex(z: complex):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


_string = _checked(_as_is, lambda v: isinstance(v, str), "a string")
_kind = _checked(_as_is, lambda v: isinstance(v, str) and v in _PAIR_FIELDS,
                 f"a pair kind, one of {sorted(_PAIR_FIELDS)}")


def _scheme_from(entry: dict, registry: SchemeRegistry) -> SplittingScheme:
    _only(entry, "scheme", ("name", "order", "stages", "parabolic_safe", "palindromic"))
    scheme = SplittingScheme(
        _value(entry, "scheme", "name", _string), _value(entry, "scheme", "order", _integer),
        _value(entry, "scheme", "stages", lambda v: [list(map(_parse_complex, st)) for st in v]))
    for flag in ("parabolic_safe", "palindromic"):
        if _value(entry, "scheme", flag, _bool, getattr(scheme, flag)) != getattr(scheme, flag):
            raise ConfigError(f"declared {flag}={entry[flag]} but computed {getattr(scheme, flag)}")
    return scheme


def _pair_from(entry: dict, registry: SchemeRegistry) -> SchemePair:
    kind = _value(entry, "pair", "kind", _kind)
    _only(entry, f"a {kind!r} pair", {"name", "kind", "integrator", *dict(_PAIR_FIELDS[kind])})
    return SchemePair(
        name=_value(entry, "pair", "name", _string),
        kind=kind,
        integrator=_value(entry, "pair", "integrator", registry.scheme),
        controller=_value(entry, "pair", "controller", registry.scheme, None),
        partner=_value(entry, "pair", "partner", registry.scheme, None),
        gamma=_value(entry, "pair", "gamma", _parse_complex, None),
        shared_prefix_len=_value(entry, "pair", "shared_prefix_len", _integer, 0),
    )


def load_scheme_file(registry: SchemeRegistry, path) -> None:
    """Parse a scheme file and register its contents.

    Raises SchemeFileError on grammar violations, inconsistent
    coefficients, duplicate names, or dangling pair references.
    """
    doc = _read_object(path, SchemeFileError, "scheme file")
    unknown = set(doc) - {"schemes", "pairs"}
    if unknown:
        raise SchemeFileError(f"{path}: unknown top-level keys {sorted(unknown)}")
    # schemes first: the file's pairs may name its schemes
    for key, label, build, add in (
        ("schemes", "scheme", _scheme_from, registry.add),
        ("pairs", "pair", _pair_from, registry.add_pair),
    ):
        entries = doc.get(key, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise SchemeFileError(f"{path}: {key!r} must be a list of objects")
        for entry in entries:
            # every error of an entry is wrapped here, once, with the file and the entry named once
            name = entry.get("name", "?")
            try:
                add(build(entry, registry))
            except ConfigError as exc:
                raise SchemeFileError(
                    f"{path}: {label} {name!r}: {str(exc).removeprefix(f'{name}: ')}") from exc


def save_scheme_file(path, schemes=(), pairs=()) -> None:
    """Write schemes/pairs in the documented file grammar."""
    doc = {}
    if schemes:
        doc["schemes"] = [
            {"name": s.name, "order": s.order,
             "stages": [[_dump_complex(c) for c in st] for st in s.stages],
             "parabolic_safe": s.parabolic_safe, "palindromic": s.palindromic}
            for s in schemes
        ]
    if pairs:  # a Milne pair's default partner and gamma are left out: S* may be unregistered
        doc["pairs"] = [
            {"name": p.name, "kind": p.kind, "integrator": p.integrator.name,
             **{key: _dump_complex(p.gamma) if key == "gamma" else _named(getattr(p, key))
                for key, _ in _PAIR_FIELDS[p.kind]
                if not (p.order % 2 and (p.partner, p.gamma) == (adjoint(p.integrator), -1))}}
            for p in pairs
        ]
    _write_lines(path, [json.dumps(doc, indent=2)])
