"""Scenario files: materials, mirror stacks, gap medium, temperature, sweep.

Line-oriented format, `#` starts a comment, whitespace around `=` is free:

    [material au]
    eps_strength = 3.0      # units of the reference frequency
    eps_resonance = 0.0
    mu_strength = 0.0
    mu_resonance = 0.0

    [material pec]
    ideal = electric        # electric | magnetic | vacuum

    [mirror 1]
    layer = au 12.5         # repeated; gap side first; thickness in c/Omega
    substrate = pec

    [mirror 2]
    substrate = au

    [gap]                   # optional, defaults to vacuum
    medium = au

    [run]                   # optional; defaults T = 0, d = 1 1 1 log
    T = 0.3                 # one tau, or several for a temperature family
    d = 0.1 100 64 log      # min max points log|lin

Every diagnostic carries a 1-based line and column.  Parsing arbitrary bytes
never raises anything but `ScenarioError`.  The parser checks each line where
it reads it, so it reports the first defect in file order; only what the whole
file decides (a missing mirror or substrate, a reference to an undefined
material, a gap medium that is not transparent) is reported after the last
line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError
from .materials import Kind, ResponseModel, VACUUM, PERFECT_ELECTRIC, PERFECT_MAGNETIC
from .reflection import Layer, MirrorStack

__all__ = ["SweepGrid", "Scenario", "parse", "serialize"]

_MATERIAL_KEYS = ("eps_strength", "eps_resonance", "mu_strength", "mu_resonance")
_IDEALS = {
    "electric": PERFECT_ELECTRIC,
    "magnetic": PERFECT_MAGNETIC,
    "vacuum": VACUUM,
}


@dataclass(frozen=True)
class SweepGrid:
    d_min: float
    d_max: float
    points: int
    scale: str = "log"

    def __post_init__(self):
        if not (math.isfinite(self.d_min) and math.isfinite(self.d_max)):
            raise ValueError("sweep endpoints must be finite")
        if self.d_min <= 0.0 or self.d_max <= 0.0:
            raise ValueError("sweep distances must be > 0")
        if self.d_min > self.d_max:
            raise ValueError("sweep requires d_min <= d_max")
        if int(self.points) != self.points or self.points < 1:
            raise ValueError("sweep needs an integer point count >= 1")
        if self.points > 10**6:
            raise ValueError("sweep point count capped at 10^6")
        if self.scale not in ("log", "lin"):
            raise ValueError("sweep scale must be 'log' or 'lin'")
        object.__setattr__(self, "points", int(self.points))

    def distances(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.d_min])
        if self.scale == "log":
            return np.geomspace(self.d_min, self.d_max, self.points)
        return np.linspace(self.d_min, self.d_max, self.points)


@dataclass(frozen=True)
class Scenario:
    """A fully resolved computation request."""

    materials: dict[str, ResponseModel]
    mirror1: MirrorStack
    mirror2: MirrorStack
    gap: ResponseModel
    temperature: float
    sweep: SweepGrid
    temperatures: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.temperature < 0.0 or not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite and >= 0")
        if self.temperatures is not None:
            temps = tuple(float(t) for t in self.temperatures)
            if len(temps) < 2:
                raise ValueError("a temperature family needs at least two entries")
            if temps[0] != self.temperature:
                raise ValueError("temperature must equal the first family entry")
            if any(t < 0.0 or not math.isfinite(t) for t in temps):
                raise ValueError("temperatures must be finite and >= 0")
            object.__setattr__(self, "temperatures", temps)
        _check_gap(self.gap)

    def material_id(self, model: ResponseModel) -> str:
        for mid in sorted(self.materials):
            if self.materials[mid] == model:
                return mid
        raise ValueError("scenario references a material missing from its table")


def _check_gap(gap: ResponseModel):
    if gap.kind in (Kind.PERFECT_ELECTRIC, Kind.PERFECT_MAGNETIC):
        raise ValueError("the gap medium must be transparent (vacuum or Lorentz-Drude)")
    if gap.eps_pole > 0.0 and gap.mu_pole > 0.0:
        raise ValueError(
            "gap medium cannot carry both electric and magnetic zero-frequency poles"
        )


class _KeyDefect(Exception):
    """A defect in a line's key rather than its value: reported at the key."""


def _section(name, lineno, col):
    """The table key of a section header's name: ("material", id),
    ("mirror", "1" | "2"), ("gap",) or ("run",)."""
    parts = name.split()
    if len(parts) == 2 and parts[0] == "material":
        if not parts[1].replace("_", "").isalnum():
            raise ScenarioError(f"invalid material id '{parts[1]}'", lineno, col)
        return ("material", parts[1])
    if len(parts) == 2 and parts[0] == "mirror" and parts[1] in ("1", "2"):
        return ("mirror", parts[1])
    if name in ("gap", "run"):
        return (name,)
    raise ScenarioError(f"unknown section '[{name}]'", lineno, col)


def _float(token, what):
    try:
        v = float(token)
    except ValueError:
        raise ValueError(f"{what}: '{token}' is not a number") from None
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite")
    return v


def _checked(section, found, key, value, at):
    """The checked value of `key = value` in `section`, whose values so far are
    `found`; a material reference keeps its position `at`.  A defect in the
    key raises `_KeyDefect`, one in the value `ValueError`."""
    kind = section[0]
    if kind == "material" and key == "ideal":
        if value not in _IDEALS:
            raise ValueError("ideal must be 'electric', 'magnetic' or 'vacuum'")
        if found:  # only oscillator keys: a second 'ideal' is a duplicate key
            raise _KeyDefect("'ideal' conflicts with oscillator parameters")
        return _IDEALS[value]
    if kind == "material" and key in _MATERIAL_KEYS:
        if "ideal" in found:
            raise _KeyDefect("oscillator parameters conflict with 'ideal'")
        v = _float(value, key)
        if v < 0.0:
            raise ValueError(f"{key} must be >= 0")
        return v
    if kind == "material":
        raise _KeyDefect(f"unknown material key '{key}'")
    if (kind, key) in (("mirror", "substrate"), ("gap", "medium")):
        return (value, *at)
    if (kind, key) == ("mirror", "layer"):
        parts = value.split()
        if len(parts) != 2:
            raise ValueError("layer needs 'layer = ID THICKNESS'")
        w = _float(parts[1], "layer thickness")
        if w <= 0.0:
            raise ValueError("layer thickness must be > 0")
        layers = found.get("layer", [])
        layers.append(((parts[0], *at), w))
        return layers
    if (kind, key) == ("run", "T"):
        temps = [_float(t, "temperature") for t in value.split()]
        if any(t < 0.0 for t in temps):
            raise ValueError("temperatures must be >= 0")
        return temps
    if (kind, key) == ("run", "d"):
        parts = value.split()
        if len(parts) != 4:
            raise ValueError("d needs 'd = MIN MAX POINTS log|lin'")
        d_min = _float(parts[0], "d_min")
        d_max = _float(parts[1], "d_max")
        try:
            points = int(parts[2])
        except ValueError:
            raise ValueError(f"point count '{parts[2]}' is not an integer") from None
        if parts[3] not in ("log", "lin"):
            raise ValueError("sweep scale must be 'log' or 'lin'")
        return SweepGrid(d_min, d_max, points, parts[3])
    raise _KeyDefect(f"unknown key '{key}' in [{' '.join(section)}]")


def _read_sections(text: str) -> dict[tuple, tuple[int, dict]]:
    """Each section's header line and checked key values, by section key.

    Every line is checked where it is read, so the first defect in file
    order is the one reported."""
    sections: dict[tuple, tuple[int, dict]] = {}
    section = found = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        col = line.index(stripped[0]) + 1

        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError("unterminated section header", lineno, col)
            section = _section(stripped[1:-1].strip(), lineno, col)
            if section in sections:
                what = "material" if section[0] == "material" else "section"
                name = f"'{section[1]}'" if what == "material" else f"[{' '.join(section)}]"
                raise ScenarioError(f"duplicate {what} {name}", lineno, col)
            found = {}
            sections[section] = (lineno, found)
            continue

        if "=" not in line:
            raise ScenarioError("expected 'key = value'", lineno, col)
        key, value = [part.strip() for part in line.split("=", 1)]
        if not key:
            raise ScenarioError("missing key before '='", lineno, col)
        eq = line.index("=")
        vcol = line.index(value, eq + 1) + 1 if value else eq + 2
        if not value:
            raise ScenarioError(f"missing value for '{key}'", lineno, vcol)
        if section is None:
            raise ScenarioError("content before any section header", lineno, col)
        if key in found and (section[0], key) != ("mirror", "layer"):
            raise ScenarioError(f"duplicate key '{key}' in this section", lineno, col)
        try:
            found[key] = _checked(section, found, key, value, (lineno, vcol))
        except _KeyDefect as exc:
            raise ScenarioError(str(exc), lineno, col) from None
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno, vcol) from None
    return sections


def _build(sections) -> Scenario:
    for idx in ("1", "2"):
        if ("mirror", idx) not in sections:
            raise ScenarioError(f"missing required section [mirror {idx}]", 1, 1)
        lineno, found = sections["mirror", idx]
        if "substrate" not in found:
            raise ScenarioError(f"[mirror {idx}] needs a substrate", lineno, 1)

    materials = {
        section[1]: found["ideal"] if "ideal" in found else ResponseModel(**found)
        for section, (_, found) in sections.items()
        if section[0] == "material"
    }

    def resolve(ref):
        mid, lineno, col = ref
        if mid not in materials:
            raise ScenarioError(f"unknown material '{mid}'", lineno, col)
        return materials[mid]

    def stack(idx):
        found = sections["mirror", idx][1]
        layers = tuple(Layer(resolve(ref), w) for ref, w in found.get("layer", ()))
        return MirrorStack(layers, resolve(found["substrate"]))

    mirror1 = stack("1")
    mirror2 = stack("2")
    gap_ref = sections.get(("gap",), (None, {}))[1].get("medium")
    gap = resolve(gap_ref) if gap_ref else VACUUM
    run = sections.get(("run",), (None, {}))[1]
    temps = run.get("T", [0.0])
    try:
        return Scenario(
            materials=materials,
            mirror1=mirror1,
            mirror2=mirror2,
            gap=gap,
            temperature=temps[0],
            sweep=run.get("d", SweepGrid(1.0, 1.0, 1, "log")),
            temperatures=tuple(temps) if len(temps) > 1 else None,
        )
    except ValueError as exc:
        # temperatures were checked where read, so only a non-vacuum gap is left
        raise ScenarioError(str(exc), *gap_ref[1:]) from None


def parse(text) -> Scenario:
    """Parse a scenario from str or bytes; all defects raise ScenarioError."""
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = bytes(text[: exc.start])
            line = prefix.count(b"\n") + 1
            col = exc.start - (prefix.rfind(b"\n") + 1) + 1
            raise ScenarioError("invalid UTF-8", line, col) from None
    elif not isinstance(text, str):
        raise ScenarioError("scenario input must be text or bytes", 1, 1)
    return _build(_read_sections(text))


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize(scenario: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s and the output is
    byte-deterministic (materials sorted by id, fixed section order)."""
    out = []
    for mid in sorted(scenario.materials):
        model = scenario.materials[mid]
        out.append(f"[material {mid}]")
        ideal = [name for name, medium in _IDEALS.items() if medium == model]
        if ideal:
            out.append(f"ideal = {ideal[0]}")
        else:
            out.extend(f"{key} = {_fmt(getattr(model, key))}" for key in _MATERIAL_KEYS)
        out.append("")

    for idx, stack in ((1, scenario.mirror1), (2, scenario.mirror2)):
        out.append(f"[mirror {idx}]")
        for layer in stack.layers:
            out.append(
                f"layer = {scenario.material_id(layer.material)} {_fmt(layer.thickness)}"
            )
        out.append(f"substrate = {scenario.material_id(stack.substrate)}")
        out.append("")

    if scenario.gap != VACUUM:
        out.append("[gap]")
        out.append(f"medium = {scenario.material_id(scenario.gap)}")
        out.append("")

    out.append("[run]")
    temps = scenario.temperatures or (scenario.temperature,)
    out.append("T = " + " ".join(_fmt(t) for t in temps))
    grid = scenario.sweep
    out.append(f"d = {_fmt(grid.d_min)} {_fmt(grid.d_max)} {grid.points} {grid.scale}")
    out.append("")
    return "\n".join(out)
