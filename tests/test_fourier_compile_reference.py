"""Fourier compiles against the per-wave loop they replaced.

``reference_parse_fourier`` is ``generators.parse_fourier`` as it was: it
checks every expanded plane wave against the mode lattice and hands
``FourierGen`` one ``FourierMode`` per wave, which it merges.  The current
compile checks each distinct wavevector once and sums the amplitudes of
equal modes in wave order before ``FourierGen`` sees them.  Both must give
the same generator, with equal ``repr`` and equal bits in every wave, and the
same error text.  The reference parses in one pass with the parameters bound
(``generators._Parser``), not through the memo of built programs that
``parse_fourier`` now rebinds, so a rebound program is checked here too.

The expressions are ``round`` on both sides of its threshold and at extreme
c, spec-sweep's four Fourier templates at seeds 0-19, and an expression
whose modes cancel.
"""

import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from trapnet import FourierGen, FourierMode, GeneratorError, catalog, parse_fourier
from trapnet import generators

BENCH = Path(__file__).resolve().parents[1] / "bench"
PERIODS = (2.0, 2.0)


def reference_parse_fourier(expr, periods, params=None) -> FourierGen:
    waves = generators._Parser(expr, generators._Waves, params or {}).parse()
    lx, ly = float(periods[0]), float(periods[1])
    modes = []
    for a, b, amp in waves:
        m = a * lx / (2 * math.pi)
        n = b * ly / (2 * math.pi)
        tol = generators.COMMENSURATE_RTOL
        if not all(math.isfinite(v) and abs(v - round(v)) <= tol * max(1.0, abs(v))
                   for v in (m, n)):
            raise GeneratorError(
                f"wavevector ({a:g}, {b:g}) is incommensurate with periods "
                f"({lx:g}, {ly:g}): mode indices ({m:g}, {n:g}) are not integers")
        modes.append(FourierMode(round(m), round(n), amp))
    return FourierGen((lx, ly), modes)


def _assert_same_generator(got, want):
    assert repr(got) == repr(want)
    assert len(got.waves) == len(want.waves)
    bits = [np.array([(kx, ky, amp.real, amp.imag) for kx, ky, amp in gen.waves]).tobytes()
            for gen in (got, want)]
    assert bits[0] == bits[1]


@pytest.mark.parametrize("c", [0.1, 0.25, 0.37, 1e-300, -2.5])
def test_round_compiles_like_the_reference(c):
    spec = catalog("round", {"c": c})
    want = reference_parse_fourier(spec.expr, spec.periods, spec.params)
    _assert_same_generator(spec.compile(), want)


def test_spec_sweep_templates_compile_like_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    templates = [(label, template) for family, label, template in workloads.SPEC_TEMPLATES
                 if family == "fourier"]
    assert len(templates) == 4
    for seed in range(20):
        rng = random.Random(f"spec-sweep:{seed}")
        for label, template in templates:
            text = workloads._render(template(rng))
            got, want = parse_fourier(text, PERIODS), reference_parse_fourier(text, PERIODS)
            assert len(got.modes) > 4, (seed, label)
            _assert_same_generator(got, want)


def test_cancelling_modes_compile_like_the_reference():
    expr = "sin(pi*x)^2 + cos(pi*x)^2 - 1"
    got = parse_fourier(expr, PERIODS)
    _assert_same_generator(got, reference_parse_fourier(expr, PERIODS))
    assert all(abs(mode.amp) < 1e-15 for mode in got.modes)


@pytest.mark.parametrize("expr", [
    "cos(0.7*x)",
    "cos(pi*x) * cos(pi*y) + 2*sin(pi*(x - y)) + cos(0.7*y) + cos(0.3*x)",
])
def test_incommensurate_waves_give_the_reference_error(expr):
    with pytest.raises(GeneratorError) as want:
        reference_parse_fourier(expr, PERIODS)
    with pytest.raises(GeneratorError) as got:
        parse_fourier(expr, PERIODS)
    assert str(got.value) == str(want.value)
