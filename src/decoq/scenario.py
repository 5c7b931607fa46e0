"""Scenario files: a small line-oriented config format and its round-trip.

Syntax: ``[section]`` headers, ``key = value`` pairs, ``#`` comments, commas
for lists.  Unknown sections or keys are parse errors that name the line, so
typos cannot silently fall back to defaults.  ``parse_scenario`` and
``serialize_scenario`` round-trip exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .codes import AMPLITUDE_ONLY, CODES
from .errors import ConfigError, SizingError

KINDS = ("scaling_sweep", "intro_example", "bounds_table", "periodic_correction", "bound_check")
CONTACT_KINDS = ("scaling_sweep", "bound_check", "periodic_correction")  # the kinds that build the declared interaction
GRID_KINDS = ("scaling_sweep", "bound_check", "intro_example")  # the kinds that sample the [time_grid]
_AXIS_LETTERS = {"x": 1, "y": 2, "z": 3}
_AXIS_NAMES = {1: "x", 2: "y", 3: "z"}

# Sizing budgets; a scenario over one exits 3 (SizingError) when it is loaded.
BLOCK_BUDGET = 2 ** 22  # complex entries (64 MiB) of the (d, T, 2 d_e) block a grid, or the halved dts, propagate
ROW_BUDGET = 2 ** 9  # time points: a fit tries up to points^2 / 2 windows, one least-squares line each
SAMPLE_BUDGET = 2 ** 18  # (halvings + 1)(cycles + 1) fidelity samples, each a row of an on and an off CSV
BOUNDS_BUDGET = 2 ** 28  # bounds-table binomial terms times n_max, which bounds the bits of each term


@dataclass(frozen=True)
class Scenario:
    """Fully materialized scenario; every field has a value after parsing."""

    kind: str
    code: str = "five_qubit"
    seed: int = 42
    out: str = "out"
    plots: bool = True
    max_dim: int = 4096
    env_dim: int = 2
    coupling_bound: float = 1.0
    beta: float = 0.0
    interaction_kind: str = "non_contact"
    contact_terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...] = ()
    t_start: float = 5e-4
    t_end: float = 8e-3
    t_points: int = 14
    t_spacing: str = "log"
    state_theta: float = 1.2
    state_phi: float = 0.5
    single_flip_omegas: tuple[float, ...] = (0.9, 1.1, 0.75, 1.3, 0.85)
    pair_flip: tuple[tuple[int, int, float], ...] = (
        (1, 2, 0.8),
        (1, 3, 0.7),
        (2, 3, 0.65),
        (3, 4, 1.05),
        (4, 5, 0.95),
    )
    dt: float = 0.12
    cycles: int = 40
    halvings: int = 2
    n_min: int = 1
    n_max: int = 20
    k_min: int = 0
    k_max: int = 3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; known: {KINDS}")
        if self.code not in CODES:
            raise ConfigError(f"unknown code {self.code!r}; known: {tuple(CODES)}")
        if self.interaction_kind not in ("non_contact", "contact"):
            raise ConfigError(f"interaction kind must be non_contact or contact, got {self.interaction_kind!r}")
        if not self.out:
            raise ConfigError("[scenario] out, the output directory (also set by --out), must not be empty")
        if "#" in self.out or self.out.splitlines() != [self.out] or self.out != self.out.strip():
            raise ConfigError(f"[scenario] out {self.out!r} would not read back from a scenario file: no '#', line break or edge space")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.env_dim < 1:
            raise ConfigError("environment dimension must be at least 1")
        if self.max_dim < 2:
            raise ConfigError("dimension cap must allow at least one qubit")
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ConfigError(f"time grid ends must be finite, got {self.t_start!r} and {self.t_end!r}")
        if self.t_spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be 'linear' or 'log', got {self.t_spacing!r}")
        if self.t_start < 0:
            raise ConfigError(f"time grid start must be >= 0, got {self.t_start!r}")
        if not self.t_start < self.t_end:
            raise ConfigError("time grid start must lie before end")
        if self.t_spacing == "log" and self.t_start <= 0:
            raise ConfigError("log spacing needs a positive start time")
        numbers = {
            "coupling_bound": (self.coupling_bound,),
            "beta": (self.beta,),
            "state theta": (self.state_theta,),
            "state phi": (self.state_phi,),
            "dt": (self.dt,),
            "single-flip omegas": self.single_flip_omegas,
            "pair-flip weights": tuple(w for _, _, w in self.pair_flip),
            "contact weights": tuple(omega for omega, _ in self.contact_terms),
        }
        for name, values in numbers.items():
            if not all(math.isfinite(x) for x in values):
                raise ConfigError(f"{name} must be finite, got {values}")
        if self.coupling_bound < 0:
            raise ConfigError(f"coupling bound must be non-negative, got {self.coupling_bound!r}")
        if not self.dt > 0:
            raise ConfigError("correction interval dt must be positive")
        if self.cycles < 10:
            raise ConfigError(f"need at least 10 correction cycles for a stable rate, got {self.cycles}")
        if self.halvings < 0:
            raise ConfigError("halvings must be non-negative")
        if math.ldexp(self.dt, -self.halvings) < sys.float_info.min:
            raise ConfigError(
                f"dt = {self.dt!r} halved {self.halvings} times falls below the smallest normal float "
                f"{sys.float_info.min!r}; use fewer halvings"
            )
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("bounds table needs 1 <= n_min <= n_max")
        if not 0 <= self.k_min <= self.k_max:
            raise ConfigError("bounds table needs 0 <= k_min <= k_max")
        unordered = [(min(k, l), max(k, l)) for k, l, _ in self.pair_flip]
        for pair in unordered:
            if pair[0] == pair[1] or unordered.count(pair) > 1:
                raise ConfigError(f"pair flip {pair[0]}-{pair[1]} must join two distinct qubits and appear once")
        generators, _, error_class = CODES[self.code]  # read off the code's row, without building it
        n = len(generators) + 1
        contact = self.kind in CONTACT_KINDS and self.interaction_kind == "contact"
        if contact:
            if not self.contact_terms:
                raise ConfigError("contact interaction declared without terms")
            for _, factors in self.contact_terms:
                positions = [pos for _, pos in factors]
                for pos in positions:
                    if not 1 <= pos <= n:
                        raise ConfigError(f"contact term addresses qubit {pos}, code has {n}")
                    if positions.count(pos) > 1:
                        raise ConfigError(f"contact term repeats qubit {pos}")
        if self.kind == "intro_example":
            if error_class != AMPLITUDE_ONLY:
                raise ConfigError("the flip-drive benchmark runs on a repetition code")
            if len(self.single_flip_omegas) != n:
                raise ConfigError(f"single-flip drive needs {n} frequencies, got {len(self.single_flip_omegas)}")
            for k_pos, l_pos, _ in self.pair_flip:
                if not (1 <= k_pos <= n and 1 <= l_pos <= n):
                    raise ConfigError(f"pair ({k_pos},{l_pos}) outside 1..{n}")
        if self.kind == "bound_check" and (self.interaction_kind != "non_contact" or self.coupling_bound <= 0):
            raise ConfigError("bound_check needs a non_contact interaction with a positive coupling bound")
        if self.t_points < 1:
            raise ConfigError("time grid needs at least one point")
        if self.kind in ("scaling_sweep", "intro_example") and self.t_points < tol.FIT_MIN_SAMPLES:
            raise ConfigError(f"{self.kind} fits over at least {tol.FIT_MIN_SAMPLES} time points, got {self.t_points}")
        # Sizing: each count is held to its budget here, before anything is built.
        env_dim = 1 if self.kind == "intro_example" or contact else self.env_dim
        joint = env_dim * 2 ** n
        if self.kind != "bounds_table" and joint > self.max_dim:
            raise SizingError(
                f"joint dimension {env_dim} x {2 ** n} (environment x register) = {joint} "
                f"exceeds the cap {self.max_dim}"
            )
        per_time = BLOCK_BUDGET // (joint * 2 * env_dim)  # times, or dts, whose (d, T, 2 d_e) block fits the budget
        where = f"at joint dimension {joint} with {2 * env_dim} start columns"
        if self.kind in GRID_KINDS and self.t_points > min(ROW_BUDGET, per_time):
            raise SizingError(f"{self.t_points} time points exceed the cap {min(ROW_BUDGET, per_time)} {where}")
        if self.kind == "periodic_correction" and self.halvings + 1 > per_time:
            raise SizingError(f"{self.halvings + 1} correction intervals exceed the cap {per_time} {where}")
        if self.kind == "periodic_correction" and (self.halvings + 1) * (self.cycles + 1) > SAMPLE_BUDGET:
            raise SizingError(f"{self.halvings + 1} intervals x {self.cycles + 1} cycles exceed {SAMPLE_BUDGET} samples")
        k_top = min(self.k_max, self.n_max)
        terms = (self.n_max - self.n_min + 1) * max(0, k_top - self.k_min + 1) * (3 * k_top + 2)
        if self.kind == "bounds_table" and terms * self.n_max > BOUNDS_BUDGET:
            raise SizingError(
                f"bounds table over n = {self.n_min}..{self.n_max}, k = {self.k_min}..{self.k_max} sums up to "
                f"{terms} binomial terms, and terms x n_max exceeds {BOUNDS_BUDGET}"
            )

    def times(self) -> np.ndarray:
        """The [time_grid] sample times: ``t_points`` from ``t_start`` to ``t_end``, log or linear."""
        if self.t_spacing == "log":
            return np.geomspace(self.t_start, self.t_end, self.t_points)
        return np.linspace(self.t_start, self.t_end, self.t_points)


def _parse_bool(raw: str, where: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ConfigError(f"{where}: expected true or false, got {raw!r}")


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_float_list(raw: str, where: str) -> tuple[float, ...]:
    if not raw.strip():
        return ()
    return tuple(_parse_float(item.strip(), where) for item in raw.split(","))


def _parse_pairs(raw: str, where: str) -> tuple[tuple[int, int, float], ...]:
    """Comma list of ``k-l:omega`` items, 1-based qubit positions."""
    items = []
    if raw.strip():
        for chunk in raw.split(","):
            chunk = chunk.strip()
            try:
                pair_part, omega_part = chunk.split(":")
                k_part, l_part = pair_part.split("-")
                k_pos, l_pos = int(k_part), int(l_part)
            except ValueError:
                raise ConfigError(f"{where}: expected items like '1-2:0.8', got {chunk!r}") from None
            items.append((k_pos, l_pos, _parse_float(omega_part.strip(), where)))
    return tuple(sorted(items))


def _parse_contact_terms(raw: str, where: str) -> tuple[tuple[float, tuple[tuple[int, int], ...]], ...]:
    """Comma list of ``omega:x1 y3`` items: coefficient, then axis+position letters."""
    terms = []
    if raw.strip():
        for chunk in raw.split(","):
            chunk = chunk.strip()
            try:
                omega_part, ops_part = chunk.split(":")
            except ValueError:
                raise ConfigError(f"{where}: expected items like '0.9:x1 x2', got {chunk!r}") from None
            omega = _parse_float(omega_part.strip(), where)
            factors = []
            for op in ops_part.split():
                if len(op) < 2 or op[0] not in _AXIS_LETTERS:
                    raise ConfigError(f"{where}: factor {op!r} must be an axis letter plus a position")
                factors.append((_AXIS_LETTERS[op[0]], _parse_int(op[1:], where)))
            if not factors:
                raise ConfigError(f"{where}: term {chunk!r} has no Pauli factors")
            terms.append((omega, tuple(factors)))
    return tuple(terms)


# section -> key -> (scenario field, tag in _TAGS); a field of None parses the
# value and discards it, which keeps files with a [state_grid] loading although
# the maximum over the logical sphere needs no grid.
_SCHEMA = {
    "scenario": {
        "kind": ("kind", "str"),
        "code": ("code", "str"),
        "seed": ("seed", "int"),
        "out": ("out", "str"),
        "plots": ("plots", "bool"),
        "max_dim": ("max_dim", "int"),
    },
    "environment": {
        "d_e": ("env_dim", "int"),
        "coupling_bound": ("coupling_bound", "float"),
        "beta": ("beta", "float"),
    },
    "interaction": {
        "kind": ("interaction_kind", "str"),
        "terms": ("contact_terms", "contact"),
    },
    "time_grid": {
        "start": ("t_start", "float"),
        "end": ("t_end", "float"),
        "points": ("t_points", "int"),
        "spacing": ("t_spacing", "str"),
    },
    "state_grid": {
        "n_theta": (None, "int"),
        "n_phi": (None, "int"),
    },
    "state": {
        "theta": ("state_theta", "float"),
        "phi": ("state_phi", "float"),
    },
    "single_flip": {
        "omegas": ("single_flip_omegas", "floats"),
    },
    "pair_flip": {
        "pairs": ("pair_flip", "pairs"),
    },
    "correction": {
        "dt": ("dt", "float"),
        "cycles": ("cycles", "int"),
        "halvings": ("halvings", "int"),
    },
    "bounds": {
        "n_min": ("n_min", "int"),
        "n_max": ("n_max", "int"),
        "k_min": ("k_min", "int"),
        "k_max": ("k_max", "int"),
    },
}

# value tag -> (parse, format): ``format`` writes the text that ``parse`` reads back as the same value
_TAGS = {
    "str": (lambda raw, where: raw, str),
    "int": (_parse_int, str),
    "float": (_parse_float, repr),
    "bool": (_parse_bool, lambda value: "true" if value else "false"),
    "floats": (_parse_float_list, lambda values: ", ".join(map(repr, values))),
    "pairs": (_parse_pairs, lambda pairs: ", ".join(f"{k}-{l}:{w!r}" for k, l, w in pairs)),
    "contact": (_parse_contact_terms, lambda terms: ", ".join(
        f"{omega!r}:" + " ".join(f"{_AXIS_NAMES[axis]}{pos}" for axis, pos in factors) for omega, factors in terms
    )),
}


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; every unknown name is an error with its line."""
    section = None
    seen: dict[tuple[str, str], int] = {}
    fields: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{section}]")
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: key {key!r} in section [{section}] repeats line {seen[section, key]}")
        seen[section, key] = lineno
        field_name, tag = _SCHEMA[section][key]
        value = _TAGS[tag][0](raw_value, f"line {lineno}, key {key!r}")
        if field_name is not None:
            fields[field_name] = value
    if "kind" not in fields:
        raise ConfigError("scenario file does not set 'kind' in section [scenario]")
    try:
        return Scenario(**fields)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def serialize_scenario(s: Scenario) -> str:
    """Canonical full-form document, every schema key in schema order; ``parse_scenario`` inverts it exactly."""
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, (name, tag) in keys.items():
            if name is not None:
                lines.append(f"{key} = {_TAGS[tag][1](getattr(s, name))}")
        if len(lines) > 1:  # a section of discarded keys, like [state_grid], is not written
            sections.append("\n".join(lines) + "\n")
    return "\n".join(sections)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark, as some editors save, is dropped
            return parse_scenario(fh.read())
    except (OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 text fails in read()
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
