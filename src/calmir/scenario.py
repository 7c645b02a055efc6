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
never raises anything but `ScenarioError`.
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


class _Parser:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.materials: dict[str, ResponseModel] = {}
        self.material_lines: dict[str, int] = {}
        self.mirrors: dict[int, dict] = {}
        self.gap_ref = None  # (id, line, col)
        self.gap_line = None
        self.run = {}
        self.run_line = None

    def fail(self, msg, line, col=1):
        raise ScenarioError(msg, line, col)

    def parse(self) -> Scenario:
        section = None  # ("material", id) | ("mirror", 1|2) | ("gap",) | ("run",)
        seen_keys: dict = {}
        pending_material: dict = {}

        def close_material():
            nonlocal pending_material
            if section is not None and section[0] == "material":
                mid = section[1]
                self.materials[mid] = self._build_material(
                    pending_material, self.material_lines[mid]
                )
            pending_material = {}

        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            stripped = line.strip()
            col0 = line.index(stripped[0]) + 1

            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    self.fail("unterminated section header", lineno, col0)
                close_material()
                section = self._open_section(stripped[1:-1].strip(), lineno, col0)
                seen_keys = {}
                continue

            if "=" not in line:
                self.fail("expected 'key = value'", lineno, col0)
            key_part, value_part = line.split("=", 1)
            key = key_part.strip()
            value = value_part.strip()
            if not key:
                self.fail("missing key before '='", lineno, col0)
            vcol = line.index("=") + 2
            if value:
                vcol = line.index(value, line.index("=")) + 1
            if not value:
                self.fail(f"missing value for '{key}'", lineno, vcol)

            if section is None:
                self.fail("content before any section header", lineno, col0)
            kind = section[0]
            if kind != "mirror" or key != "layer":
                if key in seen_keys:
                    self.fail(f"duplicate key '{key}' in this section", lineno, col0)
                seen_keys[key] = lineno

            if kind == "material":
                self._material_key(pending_material, key, value, lineno, col0, vcol)
            elif kind == "mirror":
                self._mirror_key(section[1], key, value, lineno, col0, vcol)
            elif kind == "gap":
                if key != "medium":
                    self.fail(f"unknown key '{key}' in [gap]", lineno, col0)
                self.gap_ref = (value, lineno, vcol)
            else:
                self._run_key(key, value, lineno, col0, vcol)

        close_material()
        return self._assemble()

    def _open_section(self, name, lineno, col):
        parts = name.split()
        if len(parts) == 2 and parts[0] == "material":
            mid = parts[1]
            if not mid.replace("_", "").isalnum():
                self.fail(f"invalid material id '{mid}'", lineno, col)
            if mid in self.materials or mid in self.material_lines:
                self.fail(f"duplicate material '{mid}'", lineno, col)
            self.material_lines[mid] = lineno
            return ("material", mid)
        if len(parts) == 2 and parts[0] == "mirror" and parts[1] in ("1", "2"):
            idx = int(parts[1])
            if idx in self.mirrors:
                self.fail(f"duplicate section [mirror {idx}]", lineno, col)
            self.mirrors[idx] = {"layers": [], "substrate": None, "line": lineno}
            return ("mirror", idx)
        if name == "gap":
            if self.gap_line is not None:
                self.fail("duplicate section [gap]", lineno, col)
            self.gap_line = lineno
            return ("gap",)
        if name == "run":
            if self.run_line is not None:
                self.fail("duplicate section [run]", lineno, col)
            self.run_line = lineno
            return ("run",)
        self.fail(f"unknown section '[{name}]'", lineno, col)

    def _float(self, token, lineno, col, what):
        try:
            v = float(token)
        except ValueError:
            self.fail(f"{what}: '{token}' is not a number", lineno, col)
        if not math.isfinite(v):
            self.fail(f"{what} must be finite", lineno, col)
        return v

    def _material_key(self, pending, key, value, lineno, col, vcol):
        if key == "ideal":
            if value not in _IDEALS:
                self.fail(
                    "ideal must be 'electric', 'magnetic' or 'vacuum'", lineno, vcol
                )
            if any(k in pending for k in _MATERIAL_KEYS):
                self.fail("'ideal' conflicts with oscillator parameters", lineno, col)
            pending["ideal"] = (value, lineno, col)
        elif key in _MATERIAL_KEYS:
            if "ideal" in pending:
                self.fail("oscillator parameters conflict with 'ideal'", lineno, col)
            v = self._float(value, lineno, vcol, key)
            if v < 0.0:
                self.fail(f"{key} must be >= 0", lineno, vcol)
            pending[key] = v
        else:
            self.fail(f"unknown material key '{key}'", lineno, col)

    def _build_material(self, pending, lineno):
        if "ideal" in pending:
            return _IDEALS[pending["ideal"][0]]
        return ResponseModel(
            eps_strength=pending.get("eps_strength", 0.0),
            eps_resonance=pending.get("eps_resonance", 0.0),
            mu_strength=pending.get("mu_strength", 0.0),
            mu_resonance=pending.get("mu_resonance", 0.0),
        )

    def _mirror_key(self, idx, key, value, lineno, col, vcol):
        spec = self.mirrors[idx]
        if key == "layer":
            parts = value.split()
            if len(parts) != 2:
                self.fail("layer needs 'layer = ID THICKNESS'", lineno, vcol)
            w = self._float(parts[1], lineno, vcol, "layer thickness")
            if w <= 0.0:
                self.fail("layer thickness must be > 0", lineno, vcol)
            spec["layers"].append((parts[0], w, lineno, vcol))
        elif key == "substrate":
            spec["substrate"] = (value, lineno, vcol)
        else:
            self.fail(f"unknown key '{key}' in [mirror {idx}]", lineno, col)

    def _run_key(self, key, value, lineno, col, vcol):
        if key == "T":
            temps = [self._float(t, lineno, vcol, "temperature") for t in value.split()]
            if any(t < 0.0 for t in temps):
                self.fail("temperatures must be >= 0", lineno, vcol)
            self.run["T"] = temps
        elif key == "d":
            parts = value.split()
            if len(parts) != 4:
                self.fail("d needs 'd = MIN MAX POINTS log|lin'", lineno, vcol)
            d_min = self._float(parts[0], lineno, vcol, "d_min")
            d_max = self._float(parts[1], lineno, vcol, "d_max")
            try:
                points = int(parts[2])
            except ValueError:
                self.fail(f"point count '{parts[2]}' is not an integer", lineno, vcol)
            if parts[3] not in ("log", "lin"):
                self.fail("sweep scale must be 'log' or 'lin'", lineno, vcol)
            try:
                self.run["d"] = SweepGrid(d_min, d_max, points, parts[3])
            except ValueError as exc:
                self.fail(str(exc), lineno, vcol)
        else:
            self.fail(f"unknown key '{key}' in [run]", lineno, col)

    def _resolve(self, ref):
        mid, lineno, col = ref
        if mid not in self.materials:
            self.fail(f"unknown material '{mid}'", lineno, col)
        return self.materials[mid]

    def _assemble(self) -> Scenario:
        for idx in (1, 2):
            if idx not in self.mirrors:
                self.fail(f"missing required section [mirror {idx}]", 1, 1)
            if self.mirrors[idx]["substrate"] is None:
                self.fail(
                    f"[mirror {idx}] needs a substrate", self.mirrors[idx]["line"], 1
                )

        def build_stack(idx):
            spec = self.mirrors[idx]
            layers = []
            for mid, w, lineno, col in spec["layers"]:
                layers.append(Layer(self._resolve((mid, lineno, col)), w))
            return MirrorStack(tuple(layers), self._resolve(spec["substrate"]))

        mirror1 = build_stack(1)
        mirror2 = build_stack(2)
        gap = self._resolve(self.gap_ref) if self.gap_ref else VACUUM
        try:
            _check_gap(gap)
        except ValueError as exc:
            ref = self.gap_ref or ("", self.gap_line or 1, 1)
            self.fail(str(exc), ref[1], ref[2])

        temps = self.run.get("T", [0.0])
        sweep = self.run.get("d", SweepGrid(1.0, 1.0, 1, "log"))
        try:
            return Scenario(
                materials=dict(self.materials),
                mirror1=mirror1,
                mirror2=mirror2,
                gap=gap,
                temperature=temps[0],
                sweep=sweep,
                temperatures=tuple(temps) if len(temps) > 1 else None,
            )
        except ValueError as exc:
            self.fail(str(exc), self.run_line or 1, 1)


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
    return _Parser(text).parse()


def _fmt(x: float) -> str:
    return repr(float(x))


def serialize(scenario: Scenario) -> str:
    """Canonical text form; parse(serialize(s)) == s and the output is
    byte-deterministic (materials sorted by id, fixed section order)."""
    out = []
    for mid in sorted(scenario.materials):
        model = scenario.materials[mid]
        out.append(f"[material {mid}]")
        if model.kind is Kind.PERFECT_ELECTRIC:
            out.append("ideal = electric")
        elif model.kind is Kind.PERFECT_MAGNETIC:
            out.append("ideal = magnetic")
        elif model.kind is Kind.VACUUM:
            out.append("ideal = vacuum")
        else:
            out.append(f"eps_strength = {_fmt(model.eps_strength)}")
            out.append(f"eps_resonance = {_fmt(model.eps_resonance)}")
            out.append(f"mu_strength = {_fmt(model.mu_strength)}")
            out.append(f"mu_resonance = {_fmt(model.mu_resonance)}")
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
