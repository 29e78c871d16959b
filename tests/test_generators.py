import copy
import math
import operator
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OnePassParser, polys
from trapnet import (FourierGen, GeneratorError, GeneratorSpec, ParseError, Poly2, catalog,
                     catalog_names, load_spec, parse_fourier, parse_polynomial)
from trapnet import generators
from trapnet.generators import MAX_DEGREE, MAX_EXPONENT, MAX_NESTING

ROUND_EXPR = "cos(pi*x) + cos(pi*y) + c*((cos(pi*x) - cos(pi*y))^2 - 4)"


def p_round_direct(x, y, c):
    return np.cos(np.pi * x) + np.cos(np.pi * y) + c * ((np.cos(np.pi * x) - np.cos(np.pi * y)) ** 2 - 4)


# ----------------------------------------------------------------------
# polynomial parsing
# ----------------------------------------------------------------------

def test_parse_cusp_generator():
    p = parse_polynomial("y^2 - a^2*x^3", {"a": 1.0})
    assert dict(p.terms) == {(0, 2): 1.0, (3, 0): -1.0}


def test_parse_single_variable():
    assert dict(parse_polynomial("x").terms) == {(1, 0): 1.0}


def test_parse_cancellation():
    assert parse_polynomial("x*y - x*y").is_zero()


def test_parse_parenthesized_expansion():
    p = parse_polynomial("(x + y)^2")
    assert p == Poly2({(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0})


def test_parse_leading_minus():
    assert parse_polynomial("-x^3 + y^2") == Poly2({(3, 0): -1.0, (0, 2): 1.0})


def test_parse_pi_constant():
    assert parse_polynomial("pi*x").coeff(1, 0) == pytest.approx(math.pi)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + * y")
    assert err.value.pos == 4


def test_parse_unbound_parameter():
    with pytest.raises(ParseError, match="unbound parameter 'q'"):
        parse_polynomial("q*x")


# ----------------------------------------------------------------------
# programs: a text built once per family, parameter names and periods
# ----------------------------------------------------------------------

@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty memo in place of the shared one for the test: a test that
    patches the parser's limits must not meet programs built under others,
    nor leave its own to later tests."""
    memo = generators._Memo(generators._MEMO_WEIGHT)
    monkeypatch.setattr(generators, "_MEMO", memo)
    return memo


def _one_pass(expr, params, periods=None):
    """The generator of a one-pass parse with the parameters bound."""
    values = generators._Polynomial if periods is None else generators._Waves
    return generators._finish(OnePassParser(expr, values, params).parse(), periods)


def _outcome(compile_):
    """repr and bits of a generator, or type, text and position of its error."""
    try:
        gen = compile_()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc), getattr(exc, "pos", None)
    if isinstance(gen, Poly2):
        bits = [(key, c.hex()) for key, c in sorted(gen.terms.items())]
    else:
        bits = [(kx.hex(), ky.hex(), amp.real.hex(), amp.imag.hex()) for kx, ky, amp in gen.waves]
    return repr(gen), bits


def _compiled(expr, params, periods=None):
    if periods is None:
        return parse_polynomial(expr, params)
    return parse_fourier(expr, periods, params)


def _parameter_values(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    values = [0.0, -0.0, 1e-300, -2.5]
    values += rng.uniform(-3.0, 3.0, 30).tolist()
    values += (rng.choice([-1.0, 1.0], 16) * 10.0 ** rng.uniform(-300, 300, 16)).tolist()
    return values


@pytest.mark.parametrize("name", catalog_names())
def test_rebinding_a_catalog_text_gives_the_one_pass_generator(fresh_memo, name):
    spec = catalog(name)
    # linear and cross take no parameter: an unused name still keys the memo
    names = list(spec.params) or ["unused"]
    values = _parameter_values(len(name))
    assert len(values) == 50
    for value in values:
        params = dict.fromkeys(names, value)
        want = _outcome(lambda: _one_pass(spec.expr, params, spec.periods))
        got = _outcome(lambda: _compiled(spec.expr, params, spec.periods))
        assert got == want, value


@pytest.mark.parametrize("family, expr, names", [
    ("polynomial", "y^2 - alpha^2*x^3", ["alpha"]),
    ("fourier", ROUND_EXPR, ["c"]),
    ("polynomial", "(alpha*x - c)^3 + c*alpha*y^2 - alpha", ["alpha", "c"]),
    # a parameter inside a trig argument moves the wavevectors
    ("fourier", "cos(a*pi*x) + 0.5*sin(pi*y - a)", ["a"]),
    ("fourier", "(cos(pi*x) + c*sin(a*pi*(x - y)))^3 - c", ["a", "c"]),
])
def test_rebinding_gives_the_one_pass_generator(fresh_memo, family, expr, names):
    periods = (2.0, 2.0) if family == "fourier" else None
    rng = np.random.default_rng(3)
    # integer values keep a trig argument's wavevectors on the mode lattice
    values = _parameter_values(7)[:20] + rng.integers(-3, 4, 20).astype(float).tolist()
    for value in values:
        params = {name: value * (k + 1) for k, name in enumerate(names)}
        want = _outcome(lambda: _one_pass(expr, params, periods))
        for _ in range(2):
            assert _outcome(lambda: _compiled(expr, params, periods)) == want, params


@pytest.mark.parametrize("family, expr, params", [
    ("polynomial", "q*x + r", {"q": 1.0}),
    ("fourier", "c*cos(pi*x) + k", {"c": 1.0}),
    ("polynomial", "x + big*y", {"big": math.inf}),
    ("fourier", ROUND_EXPR, {"c": math.nan}),
    ("fourier", ROUND_EXPR, {"c": -math.inf}),
    ("polynomial", "c*x", {"c": "abc"}),
    ("polynomial", "c^64*x", {"c": 1e10}),
    ("fourier", "c^64*cos(pi*x)", {"c": 1e10}),
    ("fourier", "cos(c^64*pi*x)", {"c": 1e10}),
    ("polynomial", "c*x +", {"c": 1.0}),
    ("fourier", "c*cos(pi*x) )", {"c": 1.0}),
    ("fourier", "cos(c*pi*x) + cos(x^", {"c": 1.0}),
    ("polynomial", "(c*x)*x", {"c": 0.0}),
    ("polynomial", "(c*x)*x", {"c": 1.0}),
    ("fourier", "cos((c*x)*x)", {"c": 0.0}),
    ("fourier", "cos((c*x)*x)", {"c": 1.0}),
    # the first error in source order, whichever parameter raises it
    ("fourier", "cos((c*x)*x) + cos((d*y)*y)", {"c": 0.0, "d": 1.0}),
    ("fourier", "cos((c*x)*x) + cos((d*y)*y)", {"c": 1.0, "d": 1.0}),
    ("fourier", "cos((c*x)*x) + cos(x*y)", {"c": 1.0}),
    ("fourier", "cos(c*x)", {"c": 0.7}),
])
def test_rebinding_keeps_the_one_pass_errors(fresh_memo, family, expr, params):
    periods = (2.0, 2.0) if family == "fourier" else None
    want = _outcome(lambda: _one_pass(expr, params, periods))
    # the first call builds the text's program and the second binds it again
    for _ in range(2):
        assert _outcome(lambda: _compiled(expr, params, periods)) == want


def test_a_family_is_built_once_and_rebound(fresh_memo):
    spec = catalog("round")
    for c in (0.1, 0.2, 0.3):
        catalog("round", {"c": c}).compile()
    program = fresh_memo.get((generators._Waves, spec.expr, frozenset({"c"}), spec.periods))
    assert isinstance(program, generators._Program)
    # c*B + A, with A = cos(pi*x) + cos(pi*y) and B = (cos(pi*x) - cos(pi*y))^2 - 4
    # folded to 4 and 17 plane waves
    assert [fn for fn, _ in program.steps] == [
        generators._number, generators._Parser.product, operator.add]
    folded = [a for _, args in program.steps for a in args if isinstance(a, generators._Waves)]
    assert sorted(map(len, folded)) == [4, 17]
    # no wavevector depends on c, so the mode of each wave is kept
    assert program.fixed_waves and len(program.keys) == 21
    # a text without parameters is kept as its generator
    assert parse_fourier("cos(pi*x)", (2.0, 2.0)) is parse_fourier("cos(pi*x)", (2.0, 2.0))
    assert parse_polynomial("x*y") is catalog("cross").compile()


@pytest.mark.parametrize("family, expr, params", [
    ("polynomial", "(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), {}),
    ("polynomial", "c*x + $", {"c": 1.0}),
    ("fourier", "c*cos(pi*x) + k", {"c": 1.0}),
    ("fourier", "c*cos(pi*x) + k", {"c": math.inf}),
    ("polynomial", "1e200^2*x", {}),
    ("fourier", "cos((c*x)*x) + cos(x*y)", {"c": 0.0}),  # refused product, raised from None
])
def test_a_failed_build_is_tokenized_once(fresh_memo, monkeypatch, family, expr, params):
    periods = (2.0, 2.0) if family == "fourier" else None
    texts = []
    tokenize = generators._tokenize
    monkeypatch.setattr(generators, "_tokenize", lambda src: texts.append(src) or tokenize(src))
    errors = [_raised_in_handler(lambda: _compiled(expr, params, periods)) for _ in range(3)]
    assert texts == [expr]
    # a fresh error at every call, each the one-pass parse's, down to whether
    # it hides the exception being handled when it was raised
    assert len({id(error) for error in errors}) == 3
    want = _raised_in_handler(lambda: _one_pass(expr, params, periods))
    shown = lambda e: (type(e), str(e), getattr(e, "pos", None), e.__suppress_context__)
    assert [shown(e) for e in errors] == [shown(want)] * 3


def _raised_in_handler(compile_):
    """The error of ``compile_``, called while a KeyError is being handled."""
    try:
        raise KeyError("handled")
    except KeyError:
        with pytest.raises(GeneratorError) as err:
            compile_()
    return err.value


def test_the_memo_keeps_a_build_error_without_frames(fresh_memo):
    expr = "cos((c*x)*x) + cos(x*y)"
    with pytest.raises(ParseError) as built:
        generators._Parser(expr, generators._Waves, frozenset({"c"})).parse()
    # the build raises from the refused product, in the parser's frames
    assert built.value.__traceback__ is not None and built.value.__context__ is not None
    with pytest.raises(ParseError) as err:
        parse_fourier(expr, (2.0, 2.0), {"c": 0.0})
    program = fresh_memo.get((generators._Waves, expr, frozenset({"c"}), (2.0, 2.0)))
    fn, (kept,) = program.steps[-1]
    assert fn is generators._raise and kept is not err.value
    assert (type(kept), str(kept), kept.pos) == (ParseError, str(built.value), 20)
    assert kept.__traceback__ is None and kept.__context__ is None and kept.__cause__ is None


def test_a_parse_error_survives_copy_and_pickle():
    # a typed error keeps its type, text and position across a process boundary
    with pytest.raises(ParseError) as err:
        parse_polynomial("y + k*x")
    for error in (err.value, ParseError("x", 3)):
        for clone in (copy.copy(error), copy.deepcopy(error), pickle.loads(pickle.dumps(error))):
            assert clone is not error
            assert (type(clone), str(clone), clone.pos) == (ParseError, str(error), error.pos)


def test_the_memo_keeps_to_its_weight_budget(fresh_memo):
    budget = fresh_memo.budget
    for n in range(1, 3000):
        assert parse_polynomial(f"x + {n}") == Poly2({(0, 0): float(n), (1, 0): 1.0})
        assert fresh_memo.weight <= budget
    texts = [key[1] for key in fresh_memo._entries]
    # the least recently used go first
    assert texts[-1] == "x + 2999" and "x + 1" not in texts
    assert len(texts) < 2999
    # an entry heavier than the whole budget is compiled but not kept
    terms = budget // 2 + 1
    chain = "+".join(["x"] * terms)
    assert parse_polynomial(chain) == Poly2({(1, 0): float(terms)})
    assert chain not in [key[1] for key in fresh_memo._entries]
    assert fresh_memo.weight <= budget


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse_polynomial("x^-2")


def test_parse_fractional_exponent_rejected():
    with pytest.raises(ParseError, match="not an integer"):
        parse_polynomial("x^2.5")


def test_parse_trig_rejected_in_polynomial_mode():
    with pytest.raises(ParseError, match="not allowed in a polynomial"):
        parse_polynomial("cos(x)")


def test_parse_trailing_garbage():
    with pytest.raises(ParseError):
        parse_polynomial("x )")


def test_first_error_in_source_order_is_reported():
    # the unbound name comes before the missing operand
    with pytest.raises(ParseError, match="unbound parameter 'q'") as err:
        parse_polynomial("q*x +")
    assert err.value.pos == 0
    with pytest.raises(ParseError, match="not allowed in a polynomial") as err:
        parse_polynomial("x + sin(y) * (")
    assert err.value.pos == 4
    with pytest.raises(ParseError, match="only constants") as err:
        parse_fourier("cos(pi*x) + y )", (2.0, 2.0))
    assert err.value.pos == 12


def test_parse_nesting_cap():
    deep = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_polynomial(deep) == parse_polynomial("x")
    arg = "(" * (MAX_NESTING - 1) + "pi*x" + ")" * (MAX_NESTING - 1)
    assert parse_fourier(f"cos({arg})", (2.0, 2.0)) == parse_fourier("cos(pi*x)", (2.0, 2.0))


def test_long_flat_chains_compile():
    # a flat chain is as deep as it is long in the parse tree, but it is not
    # nesting: it compiles however long it is
    n = 3000
    assert parse_polynomial("+".join(["x"] * n)) == Poly2({(1, 0): float(n)})
    factors = ["x"] * (MAX_DEGREE // 2) + ["y"] * (MAX_DEGREE // 2) + ["1"] * (n - MAX_DEGREE)
    assert parse_polynomial("*".join(factors)) == Poly2({(64, 64): 1.0})
    # a product chain is limited by its degree only, not by its length
    with pytest.raises(ParseError, match="degree 129, more than the limit of 128"):
        parse_polynomial("*".join(["x"] * n))
    chain = "cos(pi*x" + "+0*y" * n + ")"
    assert parse_fourier(chain, (2.0, 2.0)) == parse_fourier("cos(pi*x)", (2.0, 2.0))
    waves = "+".join(["cos(pi*x)"] * n)
    assert parse_fourier(waves, (2.0, 2.0)) == parse_fourier(f"{n}*cos(pi*x)", (2.0, 2.0))


def test_parse_exponent_cap():
    assert parse_polynomial(f"x^{MAX_EXPONENT}") == Poly2({(MAX_EXPONENT, 0): 1.0})
    for expr in (f"x^{MAX_EXPONENT + 1}", "x^1000000000000", "y*x^1e20"):
        with pytest.raises(ParseError, match="exceeds the limit of 64") as err:
            parse_polynomial(expr)
        assert err.value.pos == expr.index("^") + 1
    with pytest.raises(ParseError, match="exceeds the limit") as err:
        parse_fourier("cos(2^65*pi*x)", (2.0, 2.0))
    assert err.value.pos == 6


def test_parse_wave_cap(monkeypatch, fresh_memo):
    # the cap counts the waves a product expands to, before equal modes merge
    monkeypatch.setattr(generators, "MAX_WAVES", 16)
    assert parse_fourier("cos(pi*x)^4", (2.0, 2.0)).modes
    assert parse_fourier("(cos(pi*x) + cos(pi*y))^2", (2.0, 2.0)).modes
    assert parse_fourier("cos(pi*x)^2 * cos(pi*y)^2", (2.0, 2.0)).modes
    for expr, op in [("cos(pi*x)^5", "^"), ("cos(pi*x)^2 * (cos(pi*x) + cos(pi*y))^2", "*"),
                     ("(cos(pi*x) + cos(pi*y))^3", "^")]:
        with pytest.raises(ParseError, match="more than the limit of 16") as err:
            parse_fourier(expr, (2.0, 2.0))
        assert err.value.pos == expr.index(op, expr.index(")"))


def test_parse_wave_cap_refuses_before_expanding():
    expr = "(cos(pi*x) + cos(pi*y))^10"
    with pytest.raises(ParseError, match="1048576 plane waves") as err:
        parse_fourier(expr, (2.0, 2.0))
    assert err.value.pos == expr.index("^")


def test_parse_degree_cap():
    assert MAX_DEGREE == 128
    assert parse_polynomial("x^64*y^64").degree == MAX_DEGREE
    assert parse_polynomial("(x*y + 1)^64").degree == MAX_DEGREE
    assert parse_polynomial("0*x^64*x^64*x").is_zero()
    for expr, pos in [("x^64*y^64*x", 9), ("x*x^64*y^64", 6), ("(x^2*y + 1)^43", 11)]:
        with pytest.raises(ParseError, match="more than the limit of 128") as err:
            parse_polynomial(expr)
        assert err.value.pos == pos, expr


def test_parse_degree_cap_refuses_before_expanding():
    # expanded, this power of a degree-64 polynomial took about 6 s on a 2-vCPU Xeon
    expr = "((0.3*x + 0.7*y + 1)^64)^3"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="degree 192, more than the limit of 128") as err:
        parse_polynomial(expr)
    assert time.perf_counter() - start < 2.0
    assert err.value.pos == expr.rindex("^")


@pytest.mark.parametrize("expr, pos", [
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), MAX_NESTING),
    ("cos(" + "(" * MAX_NESTING + "pi*x" + ")" * (MAX_NESTING + 1), 4 + MAX_NESTING - 1),
    ("(" * 5000 + "x" + ")" * 5000, MAX_NESTING),
])
def test_parse_nesting_past_cap_is_a_parse_error(expr, pos):
    family = "fourier" if expr.startswith("cos") else "polynomial"
    periods = (2.0, 2.0) if family == "fourier" else None
    with pytest.raises(ParseError, match="nesting too deep") as err:
        GeneratorSpec(family, expr, {}, periods).compile()
    assert err.value.pos == pos


# ----------------------------------------------------------------------
# Fourier parsing
# ----------------------------------------------------------------------

def test_parse_round_mode_amplitudes():
    g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": 0.25})
    amps = g.cosine_amplitudes()
    c = 0.25
    expected = {(0, 0): -3 * c, (1, 0): 1.0, (0, 1): 1.0, (2, 0): c / 2,
                (0, 2): c / 2, (1, 1): -c, (1, -1): -c}
    assert set(amps) == set(expected)
    for key, want in expected.items():
        assert amps[key] == pytest.approx(want, abs=1e-14)
    # stored as Hermitian pairs of half amplitude
    assert g.amplitude(1, 0) == pytest.approx(0.5)
    assert g.amplitude(-1, 0) == pytest.approx(0.5)
    assert g.amplitude(1, 1) == pytest.approx(-c / 2)


def test_parse_constant_generator():
    g = parse_fourier("1", (2.0, 2.0))
    assert len(g.modes) == 1
    assert g.amplitude(0, 0) == 1.0


def test_parse_incommensurate_mode_rejected():
    with pytest.raises(GeneratorError, match="incommensurate"):
        parse_fourier("cos(x)", (2.0, 2.0))


def test_parse_sine_modes_evaluate_correctly():
    g = parse_fourier("sin(pi*x + 0.25)", (2.0, 2.0))
    for x, y in [(0.1, 0.0), (0.7, 0.3), (-1.4, 2.0)]:
        assert g.eval(x, y) == pytest.approx(math.sin(math.pi * x + 0.25), abs=1e-13)


def test_parse_nonlinear_trig_argument_rejected():
    with pytest.raises(ParseError, match="linear in x and y"):
        parse_fourier("cos(x*y)", (2.0, 2.0))
    with pytest.raises(ParseError, match="linear in x and y"):
        parse_fourier("cos(x^2)", (2.0, 2.0))
    with pytest.raises(ParseError, match="nested trig"):
        parse_fourier("cos(sin(x))", (2.0, 2.0))


def test_parse_bare_x_rejected_outside_trig():
    with pytest.raises(ParseError, match="only constants"):
        parse_fourier("x + cos(pi*y)", (2.0, 2.0))


def test_eval_round_at_node_and_origin():
    g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": 0.25})
    assert g.eval(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    for c in (0.0, 0.2, 0.4):
        gc = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": c})
        assert gc.eval(0.0, 0.0) == pytest.approx(2.0 - 4.0 * c, abs=1e-13)


def test_eval_constant_everywhere():
    g = parse_fourier("1", (2.0, 2.0))
    assert g.eval(12.3, -4.56) == pytest.approx(1.0)


def test_parse_eval_consistency_random_points():
    g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": 0.25})
    rng = np.random.default_rng(42)
    pts = rng.uniform(-2, 2, size=(100, 2))
    for x, y in pts:
        assert abs(g.eval(x, y) - p_round_direct(x, y, 0.25)) < 1e-10


def test_hermitian_closure_imaginary_part_vanishes():
    g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": 0.3})
    rng = np.random.default_rng(7)
    for x, y in rng.uniform(-3, 3, size=(50, 2)):
        total = 0.0 + 0.0j
        for kx, ky, amp in g.waves:
            total += amp * np.exp(1j * (kx * x + ky * y))
        assert abs(total.imag) < 1e-14


def test_periodicity():
    g = parse_fourier(ROUND_EXPR, (2.0, 2.0), {"c": 0.25})
    rng = np.random.default_rng(3)
    for x, y in rng.uniform(-2, 2, size=(50, 2)):
        assert g.eval(x + 2.0, y) == pytest.approx(g.eval(x, y), abs=1e-12)
        assert g.eval(x, y + 2.0) == pytest.approx(g.eval(x, y), abs=1e-12)


def test_mode_merge_cancellation():
    g = parse_fourier("cos(pi*x) - cos(pi*x) + 1", (2.0, 2.0))
    assert [(m.m, m.n) for m in g.modes] == [(0, 0)]


def test_trig_argument_power_of_zero_is_constant():
    g = parse_fourier("cos(pi*x*(y)^0)", (2.0, 2.0))
    assert g.eval(0.5, 3.7) == pytest.approx(0.0, abs=1e-15)


def test_trig_argument_power_of_zero_still_checks_its_base():
    with pytest.raises(ParseError, match="linear in x and y") as err:
        parse_fourier("cos((x*y)^0)", (2.0, 2.0))
    assert err.value.pos == 6


def test_fourier_gen_rejects_non_hermitian_modes():
    from trapnet import FourierGen, FourierMode
    with pytest.raises(GeneratorError, match="Hermitian"):
        FourierGen((2.0, 2.0), [FourierMode(1, 0, 0.5 + 0.0j)])
    with pytest.raises(GeneratorError, match="Hermitian"):
        FourierGen((2.0, 2.0), [FourierMode(1, 0, 0.5j), FourierMode(-1, 0, 0.5j)])


def test_fourier_gen_equality_compares_amplitudes():
    # FourierMode orders by (m, n) alone; FourierGen equality must see the amplitudes too
    one = parse_fourier("cos(pi*x)", (2.0, 2.0))
    assert one != parse_fourier("2*cos(pi*x)", (2.0, 2.0))
    assert one != parse_fourier("cos(pi*x)", (2.0, 4.0))
    twin = parse_fourier("0.5*cos(pi*x) + 0.5*cos(pi*x)", (2.0, 2.0))
    assert twin == one and hash(twin) == hash(one)
    assert len({one, twin, parse_fourier("2*cos(pi*x)", (2.0, 2.0))}) == 2


def test_fourier_gen_rejects_bad_periods():
    from trapnet import FourierGen
    with pytest.raises(GeneratorError, match="positive"):
        FourierGen((0.0, 2.0), [])


@pytest.mark.parametrize("family, expr, message, pos", [
    ("polynomial", "x^1e999", "'1e999' is not a finite number", 2),
    ("polynomial", "1e999*x", "'1e999' is not a finite number", 0),
    ("polynomial", "x + big*y", "'big' is not a finite number", 4),
    ("polynomial", "1e200^2*x", "coefficient overflows", None),
    ("polynomial", "(1e200*x + 1)^2 - 1e200^2*x^2", "coefficient overflows", None),
    ("fourier", "cos(1e999*x)", "'1e999' is not a finite number", 4),
    ("fourier", "cos(1e200^2*x)", "out of range", 9),
    ("fourier", "1 + sin(1e200*1e200*x)", "sin argument is not finite", 4),
    ("fourier", "cos(x + 1e200*1e200)", "cos argument is not finite", 0),
    ("fourier", "1e200*1e200*cos(pi*x)", "amplitudes must be finite", None),
    ("fourier", "cos(1e308*x)", r"mode indices \(inf, 0\) are not integers", None),
])
def test_numbers_out_of_range_are_refused(family, expr, message, pos):
    periods = (2.0, 2.0) if family == "fourier" else None
    with pytest.raises(GeneratorError, match=message) as err:
        GeneratorSpec(family, expr, {"big": math.inf}, periods).compile()
    assert getattr(err.value, "pos", None) == pos


@given(polys(max_degree=6, max_terms=5))
def test_polynomial_print_parse_round_trip(p):
    assert dict(parse_polynomial(str(p)).terms) == dict(p.terms)


# exponent literals stay at 3 or below: wave products do not merge equal
# wavevectors, so stacked powers of trig sums grow exponentially
FUZZ_VALUES = ["x", "y", "pi", "c", "q", "0", "1", "2", "3", "0.5", "1.5"]
FUZZ_TOKENS = [*FUZZ_VALUES, "+", "-", "*", "^", "(", ")", "cos(", "sin("]
FAMILIES = st.sampled_from(["polynomial", "fourier"])


def _arithmetic(leaves, max_leaves):
    """Well-formed token lists over ``leaves``; no power contains another."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: [*t[0], t[1], *t[2]]),
        st.tuples(inner.filter(lambda t: "^" not in t), st.sampled_from("0123")).map(
            lambda t: ["(", *t[0], ")", "^", t[1]]),
        inner.map(lambda t: ["-", "(", *t, ")"]),
    ), max_leaves=max_leaves)


_VALUES = st.sampled_from(FUZZ_VALUES).map(lambda t: [t])
# trig arguments lean on x, y and pi, so that they are often commensurate
# and sometimes not linear; one leaf in ten is a nested trig call
_ARGUMENT_LEAVES = st.sampled_from(["x", "y", "pi", "x", "y", "pi", "2", "0.5", "c",
                                    "sin( pi * y )"]).map(str.split)
_TRIG = st.tuples(st.sampled_from(["cos(", "sin("]), _arithmetic(_ARGUMENT_LEAVES, 4)).map(
    lambda t: [t[0], *t[1], ")"])
# most random strings stop at a syntax error, so well-formed ones are drawn
# too, to reach the checks of each family behind the syntax
FUZZ_INPUTS = st.one_of(
    st.tuples(FAMILIES, st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=12)),
    st.tuples(FAMILIES, _arithmetic(st.one_of(_VALUES, _TRIG), 6)),
)


@settings(max_examples=400, deadline=None)
@given(FUZZ_INPUTS)
def test_random_token_strings_compile_or_raise_generator_error(case):
    family, tokens = case
    periods = (2.0, 2.0) if family == "fourier" else None
    spec = GeneratorSpec(family, " ".join(tokens), {"c": 0.25}, periods)
    try:
        compiled = spec.compile()
    except GeneratorError:
        return
    assert isinstance(compiled, Poly2 if family == "polynomial" else FourierGen)


# ----------------------------------------------------------------------
# specs and catalog
# ----------------------------------------------------------------------

def test_catalog_names():
    assert catalog_names() == ["cross", "cusp", "linear", "round"]


def test_catalog_cusp_defaults():
    spec = catalog("cusp")
    assert spec.kind == "polynomial"
    assert spec.params == {"alpha": 1.0}
    assert dict(spec.compile().terms) == {(0, 2): 1.0, (3, 0): -1.0}


def test_catalog_cusp_alpha_override():
    p = catalog("cusp", {"alpha": 2.0}).compile()
    assert dict(p.terms) == {(0, 2): 1.0, (3, 0): -4.0}


def test_catalog_round_defaults():
    spec = catalog("round")
    assert spec.kind == "fourier"
    assert spec.periods == (2.0, 2.0)
    assert spec.params == {"c": 0.25}
    spec2 = catalog("round", {"c": 0.25})
    assert len(spec2.compile().cosine_amplitudes()) == 7


def test_catalog_linear_and_cross():
    assert dict(catalog("linear").compile().terms) == {(1, 0): 1.0}
    assert dict(catalog("cross").compile().terms) == {(1, 1): 1.0}


def test_catalog_unknown_name():
    with pytest.raises(GeneratorError, match="unknown generator"):
        catalog("spiral")


def test_catalog_unknown_parameter():
    with pytest.raises(GeneratorError, match="no parameter"):
        catalog("linear", {"alpha": 2.0})


def test_spec_json_round_trip(tmp_path):
    spec = catalog("round", {"c": 0.1})
    path = tmp_path / "round.json"
    path.write_text(__import__("json").dumps(spec.to_dict()))
    loaded = load_spec(path)
    assert loaded == spec


def test_spec_requires_periods_for_fourier():
    with pytest.raises(GeneratorError, match="periods"):
        GeneratorSpec("fourier", "cos(pi*x)")


def test_spec_rejects_unknown_kind():
    with pytest.raises(GeneratorError, match="kind"):
        GeneratorSpec("rational", "1")


def test_load_spec_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GeneratorError, match="invalid generator spec"):
        load_spec(path)
