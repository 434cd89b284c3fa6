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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import ConfigError, DegeneratePairWarning, SchemeFileError
from .spectral import Field
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
            if abs(total - 1.0) > _CONSISTENCY_TOL:
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
        kind = "complex" if self.is_complex else "real"
        return f"{self.name}: order {self.order}, arity {self.arity}, {self.s} stages, {kind}"


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


def apply_word(word, prob: SplitProblem, h: complex, f: Field):
    """Apply a (slot, coeff) word with step h; returns (state, flow_evals)."""
    n_evals = 0
    for slot, c in word:
        t = c * h
        if t == 0:
            continue
        f = prob.flows[slot](t, f)
        n_evals += 1
    return f, n_evals


def compose_step(scheme: SplittingScheme, prob: SplitProblem, h: complex, f: Field) -> Field:
    """One step u1 = S(h, u0) of the splitting applied to the problem."""
    if scheme.arity != prob.arity:
        raise ConfigError(
            f"scheme {scheme.name} has arity {scheme.arity}, problem {prob.name} "
            f"has arity {prob.arity}"
        )
    out, _ = apply_word(scheme.word(), prob, h, f)
    return out


# ---------------------------------------------------------------------------
# Pairs
# ---------------------------------------------------------------------------

_PAIR_KINDS = ("embedded", "adjoint_average", "milne", "palindromic")


@dataclass(frozen=True)
class SchemePair:
    """An integrator plus the recipe for its local error estimate.

    kind = "embedded":        controller of order p+1 shares the first
                              ``shared_prefix_len`` stages with the
                              integrator, whose work is reused.
    kind = "adjoint_average": controller is the average of the scheme and
                              its adjoint; requires odd order p.
    kind = "milne":           partner scheme of the same order whose
                              leading error constant is gamma times the
                              integrator's; requires gamma != 1.
    kind = "palindromic":     adjoint_average for a palindromic scheme;
                              the adjoint is the scheme with operator
                              roles exchanged, so it costs no new
                              coefficients.  Requires odd order p.
    """

    name: str
    kind: str
    integrator: SplittingScheme
    controller: Optional[SplittingScheme] = None
    partner: Optional[SplittingScheme] = None
    gamma: Optional[complex] = None
    shared_prefix_len: int = 0

    def __post_init__(self):
        if self.kind not in _PAIR_KINDS:
            raise ConfigError(f"{self.name}: unknown pair kind {self.kind!r}")
        p = self.integrator.order
        if self.kind == "embedded":
            if self.controller is None:
                raise ConfigError(f"{self.name}: embedded pair needs a controller")
            if self.controller.arity != self.integrator.arity:
                raise ConfigError(f"{self.name}: integrator/controller arity mismatch")
            if self.controller.order != p + 1:
                raise ConfigError(
                    f"{self.name}: controller order {self.controller.order}, expected {p + 1}"
                )
            L = self.shared_prefix_len
            if L < 0 or L > min(self.integrator.s, self.controller.s):
                raise ConfigError(f"{self.name}: shared_prefix_len {L} out of range")
            if self.integrator.stages[:L] != self.controller.stages[:L]:
                raise ConfigError(
                    f"{self.name}: first {L} stages of integrator and controller differ"
                )
        elif self.kind in ("adjoint_average", "palindromic"):
            if p % 2 == 0:
                raise ConfigError(
                    f"{self.name}: adjoint-average estimators require odd order, got {p}"
                )
            if self.kind == "palindromic" and not self.integrator.palindromic:
                raise ConfigError(f"{self.name}: {self.integrator.name} is not palindromic")
            object.__setattr__(self, "partner", adjoint(self.integrator))
        elif self.kind == "milne":
            if self.partner is None:
                raise ConfigError(f"{self.name}: Milne pair needs a partner scheme")
            if self.partner.order != p:
                raise ConfigError(f"{self.name}: Milne partner must match order {p}")
            if self.gamma is None or self.gamma == 1:
                raise ConfigError(f"{self.name}: Milne pair needs gamma != 1")
        if self.partner is not None and self.partner.stages == self.integrator.stages:
            warnings.warn(
                f"{self.name}: partner coincides with the integrator; the error "
                "estimate will be identically zero",
                DegeneratePairWarning,
                stacklevel=2,
            )

    @property
    def order(self) -> int:
        return self.integrator.order


# ---------------------------------------------------------------------------
# Registry and built-ins
# ---------------------------------------------------------------------------

class SchemeRegistry:
    """Name-indexed schemes and pairs; duplicate names are refused."""

    def __init__(self):
        self.schemes = {}
        self.pairs = {}
        self._builtin_names = set()

    def add(self, scheme: SplittingScheme, builtin: bool = False):
        if scheme.name in self.schemes:
            raise SchemeFileError(f"duplicate scheme name {scheme.name!r}")
        self.schemes[scheme.name] = scheme
        if builtin:
            self._builtin_names.add(scheme.name)

    def add_pair(self, pair: SchemePair, builtin: bool = False):
        if pair.name in self.pairs:
            raise SchemeFileError(f"duplicate pair name {pair.name!r}")
        self.pairs[pair.name] = pair
        if builtin:
            self._builtin_names.add(pair.name)

    def scheme(self, name: str) -> SplittingScheme:
        try:
            return self.schemes[name]
        except KeyError:
            raise ConfigError(
                f"unknown scheme {name!r}; available: {sorted(self.schemes)}"
            ) from None

    def pair(self, name: str) -> SchemePair:
        try:
            return self.pairs[name]
        except KeyError:
            raise ConfigError(
                f"unknown pair {name!r}; available: {sorted(self.pairs)}"
            ) from None

    def builtin_names(self) -> set:
        return set(self._builtin_names)

    def highest_order_scheme(self, arity: int = 2, parabolic_only: bool = True) -> SplittingScheme:
        """Best available scheme for reference solves."""
        candidates = [
            s
            for s in self.schemes.values()
            if s.arity == arity and (s.parabolic_safe or not parabolic_only)
        ]
        if not candidates:
            raise ConfigError(f"no registered scheme of arity {arity}")
        return max(candidates, key=lambda s: (s.order, -s.flow_evals))


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
        reg.add(s, builtin=True)

    reg.add_pair(SchemePair("lie-avg", "adjoint_average", lie), builtin=True)
    reg.add_pair(
        SchemePair("lie-milne", "milne", lie, partner=lie_adj, gamma=-1.0), builtin=True
    )
    reg.add_pair(SchemePair("lie-pal", "palindromic", lie), builtin=True)
    reg.add_pair(SchemePair("comp3c-avg", "adjoint_average", comp3c), builtin=True)
    reg.add_pair(
        SchemePair("emb23c", "embedded", emb2c, controller=comp3c, shared_prefix_len=1),
        builtin=True,
    )
    reg.add_pair(SchemePair("lie3-avg", "adjoint_average", lie3), builtin=True)
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
#    "shared_prefix_len": int}
#   {"name": str, "kind": "milne", "integrator": str, "partner": str,
#    "gamma": number | [re, im]}
#   {"name": str, "kind": "adjoint_average" | "palindromic", "integrator": str}
# ---------------------------------------------------------------------------

def _parse_complex(x, where: str):
    # real values stay float so loaded schemes print like builtins
    if isinstance(x, bool):
        raise SchemeFileError(f"{where}: expected number or [re, im], got {x!r}")
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) for v in x):
        return float(x[0]) if x[1] == 0 else complex(x[0], x[1])
    raise SchemeFileError(f"{where}: expected number or [re, im], got {x!r}")


def _dump_complex(z: complex):
    z = complex(z)
    if z.imag == 0.0:
        return z.real
    return [z.real, z.imag]


_SCHEME_KEYS = {"name", "order", "stages", "parabolic_safe", "palindromic"}
_PAIR_KEYS = {"name", "kind", "integrator", "controller", "partner", "gamma", "shared_prefix_len"}


def load_scheme_file(registry: SchemeRegistry, path) -> None:
    """Parse a scheme file and register its contents.

    Raises SchemeFileError on grammar violations, inconsistent
    coefficients, duplicate names, or dangling pair references.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemeFileError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemeFileError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemeFileError(f"{path}: top level must be an object")
    unknown = set(doc) - {"schemes", "pairs"}
    if unknown:
        raise SchemeFileError(f"{path}: unknown top-level keys {sorted(unknown)}")

    for entry in doc.get("schemes", []):
        where = f"{path}: scheme {entry.get('name', '?')!r}"
        bad = set(entry) - _SCHEME_KEYS
        if bad:
            raise SchemeFileError(f"{where}: unknown keys {sorted(bad)}")
        try:
            stages = tuple(
                tuple(_parse_complex(c, where) for c in st) for st in entry["stages"]
            )
            scheme = SplittingScheme(entry["name"], int(entry["order"]), stages)
        except (KeyError, TypeError) as exc:
            raise SchemeFileError(f"{where}: {exc}") from exc
        except ConfigError as exc:
            raise SchemeFileError(f"{where}: {exc}") from exc
        for flag in ("parabolic_safe", "palindromic"):
            if flag in entry and bool(entry[flag]) != getattr(scheme, flag):
                raise SchemeFileError(
                    f"{where}: declared {flag}={entry[flag]} but computed {getattr(scheme, flag)}"
                )
        registry.add(scheme)

    for entry in doc.get("pairs", []):
        where = f"{path}: pair {entry.get('name', '?')!r}"
        bad = set(entry) - _PAIR_KEYS
        if bad:
            raise SchemeFileError(f"{where}: unknown keys {sorted(bad)}")
        try:
            kind = entry["kind"]
            integrator = registry.scheme(entry["integrator"])
            controller = registry.scheme(entry["controller"]) if "controller" in entry else None
            partner = registry.scheme(entry["partner"]) if "partner" in entry else None
            gamma = _parse_complex(entry["gamma"], where) if "gamma" in entry else None
            pair = SchemePair(
                name=entry["name"],
                kind=kind,
                integrator=integrator,
                controller=controller,
                partner=partner,
                gamma=gamma,
                shared_prefix_len=int(entry.get("shared_prefix_len", 0)),
            )
        except KeyError as exc:
            raise SchemeFileError(f"{where}: missing key {exc}") from exc
        except ConfigError as exc:
            raise SchemeFileError(f"{where}: {exc}") from exc
        registry.add_pair(pair)


def save_scheme_file(path, schemes=(), pairs=()) -> None:
    """Write schemes/pairs in the documented file grammar."""
    doc = {}
    if schemes:
        doc["schemes"] = [
            {
                "name": s.name,
                "order": s.order,
                "stages": [[_dump_complex(c) for c in st] for st in s.stages],
                "parabolic_safe": s.parabolic_safe,
                "palindromic": s.palindromic,
            }
            for s in schemes
        ]
    if pairs:
        rows = []
        for p in pairs:
            row = {"name": p.name, "kind": p.kind, "integrator": p.integrator.name}
            if p.kind == "embedded":
                row["controller"] = p.controller.name
                row["shared_prefix_len"] = p.shared_prefix_len
            elif p.kind == "milne":
                row["partner"] = p.partner.name
                row["gamma"] = _dump_complex(p.gamma)
            rows.append(row)
        doc["pairs"] = rows
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
