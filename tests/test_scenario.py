"""Scenario grammar: round-trips, diagnostics, robustness."""

import dataclasses
import math

import numpy as np
import pytest

from calmir import (
    Layer,
    MirrorStack,
    PERFECT_ELECTRIC,
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    SweepGrid,
    VACUUM,
    parse,
    preset_scenario,
    serialize,
)
from conftest import random_material

MINIMAL = """
[material pec]
ideal = electric

[mirror 1]
substrate = pec

[mirror 2]
substrate = pec
"""


def test_minimal_file():
    s = parse(MINIMAL)
    assert s.mirror1.substrate == PERFECT_ELECTRIC
    assert s.gap == VACUUM
    assert s.temperature == 0.0
    assert s.sweep.points == 1


def test_comments_and_whitespace():
    s = parse(
        "# leading comment\n[material m]\n  eps_strength=2.5 # inline\n"
        "[mirror 1]\nsubstrate=m\n[mirror 2]\n  layer =  m   1.5\nsubstrate = m\n"
    )
    assert s.materials["m"].eps_strength == 2.5
    assert s.mirror2.layers[0].thickness == 1.5


def test_caption_file_matches_preset():
    text = """
[material metal]
eps_strength = 3.0
eps_resonance = 0.0

[material coating]
eps_strength = 0.1
eps_resonance = 1.0
mu_strength = 0.3
mu_resonance = 1.0

[mirror 1]
substrate = metal

[mirror 2]
layer = coating 62.83185307179586
substrate = metal

[run]
T = 0.0
d = 0.015707963267948967 314.1592653589793 64 log
"""
    assert parse(text) == preset_scenario("fig1c")


@pytest.mark.parametrize(
    "text,fragment,line,col",
    [
        ("[mirror 1]\nsubstrate = au\n[mirror 2]\nsubstrate = au", "unknown material 'au'", 2, 13),
        ("[material a]\n[material a]\n" + MINIMAL, "duplicate material", 2, 1),
        ("[material a]\neps_strength = -2\n" + MINIMAL, ">= 0", 2, 16),
        ("[material a]\neps_strength = nan\n" + MINIMAL, "finite", 2, 16),
        ("[material a]\nideal = electric\neps_strength = 1\n" + MINIMAL, "conflict", 3, 1),
        ("[material a]\nbogus = 1\n" + MINIMAL, "unknown material key", 2, 1),
        ("[weird]\n" + MINIMAL, "unknown section", 1, 1),
        ("stray line\n" + MINIMAL, "expected 'key = value'", 1, 1),
        (MINIMAL + "[run]\nd = 1 2 3\n", "d needs", 11, 5),
        (MINIMAL + "[run]\nd = 2 1 5 log\n", "d_min <= d_max", 11, 5),
        (MINIMAL + "[run]\nd = 1 2 0 log\n", ">= 1", 11, 5),
        (MINIMAL + "[run]\nT = -1\n", ">= 0", 11, 5),
        (MINIMAL + "[mirror 1]\n", "duplicate section", 10, 1),
        (MINIMAL + "layer = pec 0\n", "> 0", 10, 9),
        ("[mirror 2]\nsubstrate = pec\n[material pec]\nideal = vacuum\n", "missing required section [mirror 1]", 1, 1),
        ("[material pec]\nideal = electric\n[mirror 1]\n[mirror 2]\nsubstrate = pec\n", "needs a substrate", 3, 1),
        (MINIMAL + "[gap]\nmedium = pec\n", "transparent", 11, 10),
        ("  [material a-b]\n" + MINIMAL, "invalid material id 'a-b'", 1, 3),
        (MINIMAL + "[gap]\n[gap]\n", "duplicate section [gap]", 11, 1),
        (MINIMAL + "[run]\n  [run]\n", "duplicate section [run]", 11, 3),
        (" [mirror 1\n" + MINIMAL, "unterminated section header", 1, 2),
        ("[material a]\n  = 1\n" + MINIMAL, "missing key before '='", 2, 3),
        ("[material a]\neps_strength =  # none\n" + MINIMAL, "missing value for 'eps_strength'", 2, 15),
        ("  a = 1\n" + MINIMAL, "content before any section header", 1, 3),
        ("[material a]\neps_strength = 1\n\teps_strength = 2\n" + MINIMAL, "duplicate key 'eps_strength'", 3, 2),
        ("[material a]\nideal = metal\n" + MINIMAL, "ideal must be 'electric', 'magnetic' or 'vacuum'", 2, 9),
        # the value '=' starts right after the separator
        ("[material a]\nideal==\n" + MINIMAL, "ideal must be 'electric', 'magnetic' or 'vacuum'", 2, 7),
        ("[material a]\nmu_strength = 1\n ideal = electric\n" + MINIMAL, "'ideal' conflicts", 3, 2),
        ("[material a]\neps_strength = oops\n" + MINIMAL, "eps_strength: 'oops' is not a number", 2, 16),
        (MINIMAL + " bogus = 1\n", "unknown key 'bogus' in [mirror 2]", 10, 2),
        (MINIMAL + "[gap]\nmed = pec\n", "unknown key 'med' in [gap]", 11, 1),
        (MINIMAL + "[run]\ntau = 1\n", "unknown key 'tau' in [run]", 11, 1),
        (MINIMAL + "[run]\nd = 1 2 x log\n", "point count 'x' is not an integer", 11, 5),
        (MINIMAL + "[run]\nd =   1 2 3 cubic\n", "sweep scale must be 'log' or 'lin'", 11, 7),
        (MINIMAL + "layer = au 1\n", "unknown material 'au'", 10, 9),
        (MINIMAL + "layer = pec\n", "layer needs", 10, 9),
        (MINIMAL + "[run]\nd = inf 2 2 log\n", "d_min must be finite", 11, 5),
        (MINIMAL + "[run]\nd = 0 1 2 lin\n", "sweep distances must be > 0", 11, 5),
        (MINIMAL + "[run]\nT = 0.1 x\n", "temperature: 'x' is not a number", 11, 5),
        (MINIMAL + "[gap]\nmedium = air\n", "unknown material 'air'", 11, 10),
        ("[material g]\neps_strength = 1\nmu_strength = 1\n" + MINIMAL + "[gap]\nmedium = g\n",
         "both electric and magnetic", 14, 10),
    ],
)
def test_diagnostics_carry_positions(text, fragment, line, col):
    with pytest.raises(ScenarioError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.col) == (line, col)


def test_invalid_utf8_reports_position():
    with pytest.raises(ScenarioError) as err:
        parse(b"[material a]\n\xff\xfe")
    assert "UTF-8" in str(err.value)
    assert err.value.line == 2


def random_scenario(rng) -> Scenario:
    materials = {}
    for i in range(int(rng.integers(1, 5))):
        materials[f"m{i}"] = random_material(rng)
    if rng.random() < 0.3:
        materials["pec"] = PERFECT_ELECTRIC
    ids = sorted(materials)

    def stack():
        n = int(rng.integers(0, 4))
        layers = tuple(
            Layer(materials[rng.choice(ids)], float(rng.uniform(0.1, 30.0)))
            for _ in range(n)
        )
        return MirrorStack(layers, materials[rng.choice(ids)])

    gap = VACUUM
    if rng.random() < 0.25:
        gid = rng.choice([i for i in ids if materials[i].kind.value == "lorentz_drude"] or ["m0"])
        gap = materials[gid]
    temps = None
    t0 = float(rng.uniform(0.0, 2.0))
    if rng.random() < 0.3:
        temps = (t0,) + tuple(float(x) for x in rng.uniform(0.0, 2.0, 2))
    d1, d2 = np.sort(rng.uniform(0.05, 50.0, 2))
    return Scenario(
        materials=materials,
        mirror1=stack(),
        mirror2=stack(),
        gap=gap,
        temperature=t0,
        sweep=SweepGrid(float(d1), float(d2), int(rng.integers(1, 100)), str(rng.choice(["log", "lin"]))),
        temperatures=temps,
    )


def test_roundtrip_random_scenarios():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = random_scenario(rng)
        text = serialize(s)
        s2 = parse(text)
        assert s2 == s
        assert serialize(s2) == text  # canonical form is a fixed point


def test_roundtrip_presets():
    for name in PRESET_NAMES:
        s = preset_scenario(name)
        assert parse(serialize(s)) == s


def test_serialization_deterministic():
    s = preset_scenario("fig1c")
    assert serialize(s) == serialize(preset_scenario("fig1c"))


def test_fuzz_mutations_never_crash():
    rng = np.random.default_rng(99)
    bases = [serialize(preset_scenario(n)).encode() for n in PRESET_NAMES]
    n_ok = 0
    for i in range(20000):
        data = bytearray(bases[i % len(bases)])
        for _ in range(int(rng.integers(1, 6))):
            op = rng.integers(0, 3)
            pos = int(rng.integers(0, max(1, len(data))))
            if op == 0 and data:
                data[pos % len(data)] = int(rng.integers(0, 256))
            elif op == 1:
                data.insert(pos, int(rng.integers(0, 256)))
            elif data:
                del data[pos % len(data)]
        try:
            parse(bytes(data))
            n_ok += 1
        except ScenarioError:
            pass
    # some mutations must still parse, most should fail cleanly
    assert n_ok > 0


def test_sweep_grid_distances():
    lin = SweepGrid(1.0, 3.0, 3, "lin")
    assert np.allclose(lin.distances(), [1.0, 2.0, 3.0])
    log = SweepGrid(1.0, 4.0, 3, "log")
    assert np.allclose(log.distances(), [1.0, 2.0, 4.0])
    single = SweepGrid(2.0, 2.0, 1, "log")
    assert np.allclose(single.distances(), [2.0])


@pytest.mark.parametrize("args, message", [
    ((1.0, math.inf, 4), "endpoints must be finite"),
    ((math.nan, 2.0, 4), "endpoints must be finite"),
    ((1.0, 2.0, 10**6 + 1), r"capped at 10\^6"),
    ((1.0, 2.0, 4, "quadratic"), "scale must be 'log' or 'lin'"),
])
def test_sweep_grid_rejects(args, message):
    with pytest.raises(ValueError, match=message):
        SweepGrid(*args)


def test_scenario_rejects_a_negative_temperature():
    s = preset_scenario("fig1a")
    with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
        dataclasses.replace(s, temperature=-0.1)
    with pytest.raises(ValueError, match="temperatures must be finite and >= 0"):
        dataclasses.replace(s, temperature=0.1, temperatures=(0.1, -0.2))


def test_material_id_of_a_material_missing_from_the_table():
    s = preset_scenario("fig1a")
    assert s.material_id(s.mirror1.substrate) == "metal"
    with pytest.raises(ValueError, match="missing from its table"):
        s.material_id(PERFECT_ELECTRIC)


@pytest.mark.parametrize("data", [None, 42, ["[gap]"]])
def test_parse_needs_text_or_bytes(data):
    with pytest.raises(ScenarioError, match="must be text or bytes"):
        parse(data)


def test_scenario_temperature_family_rules():
    s = preset_scenario("fig1a")
    with pytest.raises(ValueError):
        Scenario(
            materials=s.materials,
            mirror1=s.mirror1,
            mirror2=s.mirror2,
            gap=s.gap,
            temperature=0.1,
            sweep=s.sweep,
            temperatures=(0.2, 0.1),
        )
    with pytest.raises(ValueError):
        Scenario(
            materials=s.materials,
            mirror1=s.mirror1,
            mirror2=s.mirror2,
            gap=s.gap,
            temperature=0.1,
            sweep=s.sweep,
            temperatures=(0.1,),
        )
