import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from decoq.codes import AMPLITUDE_ONLY
from decoq.errors import ConfigError
from decoq.scenario import (
    BLOCK_BUDGET,
    CODES,
    CONTACT_KINDS,
    GRID_KINDS,
    KINDS,
    ROW_BUDGET,
    SAMPLE_BUDGET,
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = "[scenario]\nkind = bounds_table\n"


class TestParsing:
    def test_minimal_document_materializes_defaults(self):
        s = parse_scenario(MINIMAL)
        assert s.kind == "bounds_table"
        assert (s.n_min, s.n_max) == (1, 20)
        assert (s.k_min, s.k_max) == (0, 3)
        assert s.seed == 42
        assert s.code == "five_qubit"
        assert (s.t_start, s.t_end, s.t_points, s.t_spacing) == (5e-4, 8e-3, 14, "log")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n[scenario]\nkind = bounds_table  # trailing\n\n"
        assert parse_scenario(text).kind == "bounds_table"

    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError, match=r"line 1: unknown section \[general\]"):
            parse_scenario("[general]\nkind = bounds_table\n")

    def test_unknown_key_names_line_and_key(self):
        text = "[scenario]\nkind = bounds_table\ncolour = red\n"
        with pytest.raises(ConfigError, match="line 3: unknown key 'colour'"):
            parse_scenario(text)

    def test_unknown_kind_value(self):
        with pytest.raises(ConfigError, match="unknown scenario kind 'brownian'"):
            parse_scenario("[scenario]\nkind = brownian\n")

    def test_unknown_code_value(self):
        with pytest.raises(ConfigError, match="unknown code"):
            parse_scenario("[scenario]\nkind = scaling_sweep\ncode = no_such_code\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1: key outside any section"):
            parse_scenario("kind = bounds_table\n")

    def test_missing_kind(self):
        with pytest.raises(ConfigError, match="does not set 'kind'"):
            parse_scenario("[scenario]\nseed = 7\n")

    def test_bad_number_names_key(self):
        text = "[scenario]\nkind = bounds_table\nseed = soon\n"
        with pytest.raises(ConfigError, match="key 'seed'"):
            parse_scenario(text)

    def test_bad_bool(self):
        text = "[scenario]\nkind = bounds_table\nplots = yes\n"
        with pytest.raises(ConfigError, match="expected true or false"):
            parse_scenario(text)

    def test_bad_pair_item(self):
        text = "[scenario]\nkind = intro_example\n[pair_flip]\npairs = 1:0.8\n"
        with pytest.raises(ConfigError, match="expected items like"):
            parse_scenario(text)

    def test_bad_contact_term(self):
        text = "[scenario]\nkind = scaling_sweep\n[interaction]\nterms = 0.9:w1\n"
        with pytest.raises(ConfigError, match="axis letter"):
            parse_scenario(text)

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_scenario("[scenario]\nkind\n")

    def test_pair_flip_rejects_degenerate(self):
        text = "[scenario]\nkind = intro_example\ncode = repetition-5\n[pair_flip]\npairs = "
        with pytest.raises(ConfigError, match="pair flip 2-2 must join two distinct qubits"):
            parse_scenario(text + "2-2:1.0\n")
        with pytest.raises(ConfigError, match=r"pair \(1,6\) outside 1\.\.5"):
            parse_scenario(text + "1-6:1.0\n")

    def test_pairs_are_sorted(self):
        text = (
            "[scenario]\nkind = intro_example\ncode = repetition-5\n"
            "[pair_flip]\npairs = 3-4:1.05, 1-2:0.8\n"
        )
        s = parse_scenario(text)
        assert s.pair_flip == ((1, 2, 0.8), (3, 4, 1.05))

    def test_contact_terms_parse(self):
        text = (
            "[scenario]\nkind = scaling_sweep\n"
            "[interaction]\nkind = contact\nterms = 0.9:x1 x2, -0.25:z3\n"
        )
        s = parse_scenario(text)
        assert s.interaction_kind == "contact"
        assert s.contact_terms == ((0.9, ((1, 1), (1, 2))), (-0.25, ((3, 3),)))


class TestTimeGrid:
    def test_log_times(self):
        s = Scenario(kind="bounds_table", t_start=1e-3, t_end=1e-1, t_points=5, t_spacing="log")
        assert np.allclose(s.times(), np.geomspace(1e-3, 1e-1, 5))

    def test_linear_times(self):
        s = Scenario(kind="bounds_table", t_start=0.0, t_end=1.0, t_points=6, t_spacing="linear")
        assert np.allclose(s.times(), np.linspace(0.0, 1.0, 6))

    def test_validation(self):
        with pytest.raises(ConfigError, match="start must lie before end"):
            Scenario(kind="bounds_table", t_start=0.2, t_end=0.1, t_points=5)
        with pytest.raises(ConfigError, match="positive start"):
            Scenario(kind="bounds_table", t_start=0.0, t_end=1.0, t_points=5)
        with pytest.raises(ConfigError, match="at least one point"):
            Scenario(kind="bounds_table", t_start=0.1, t_end=0.2, t_points=0)
        with pytest.raises(ConfigError, match="spacing must be"):
            Scenario(kind="bounds_table", t_start=0.1, t_end=0.2, t_points=5, t_spacing="cubic")
        with pytest.raises(ConfigError, match="start must be >= 0"):
            Scenario(kind="bounds_table", t_start=-0.01, t_end=0.1, t_points=5, t_spacing="linear")

    def test_negative_start_rejected(self):
        text = "[scenario]\nkind = scaling_sweep\n[time_grid]\nstart = -0.01\nend = 0.1\nspacing = linear\n"
        with pytest.raises(ConfigError, match="start must be >= 0"):
            parse_scenario(text)
        assert parse_scenario(text.replace("-0.01", "0.0")).t_start == 0.0

    def test_grid_keys_override(self):
        text = "[scenario]\nkind = scaling_sweep\n[time_grid]\nstart = 0.001\npoints = 9\n"
        s = parse_scenario(text)
        assert s.t_start == 0.001
        assert s.t_points == 9
        assert s.t_end == Scenario(kind="scaling_sweep").t_end


    def test_state_grid_accepted_and_ignored(self):
        text = MINIMAL + "[state_grid]\nn_theta = 9\nn_phi = 17\n"
        assert parse_scenario(text) == parse_scenario(MINIMAL)
        with pytest.raises(ConfigError, match="key 'n_phi'"):
            parse_scenario(MINIMAL + "[state_grid]\nn_phi = many\n")

    @pytest.mark.parametrize(
        "field, value",
        [("cycles", 9), ("dt", 0.0), ("halvings", -1), ("n_min", 0), ("n_max", 0), ("k_min", -1), ("k_max", -1)],
    )
    def test_value_ranges(self, field, value):
        with pytest.raises(ConfigError):
            Scenario(kind="bounds_table", **{field: value})

    def test_halvings_keep_dt_normal(self):
        # dt 2^-halvings must stay a normal float; 2^-1022 is the smallest one
        assert Scenario(kind="periodic_correction", dt=1.0, halvings=1022).halvings == 1022
        for dt, halvings in ((1.0, 1023), (0.12, 1100), (0.12, 10 ** 30), (5e-324, 0)):
            with pytest.raises(ConfigError, match="smallest normal float"):
                Scenario(kind="periodic_correction", dt=dt, halvings=halvings)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("coupling_bound", math.nan),
            ("coupling_bound", math.inf),
            ("beta", -math.inf),
            ("state_theta", math.nan),
            ("state_phi", math.inf),
            ("dt", math.nan),
            ("dt", math.inf),
            ("single_flip_omegas", (0.9, math.nan)),
            ("pair_flip", ((1, 2, math.inf),)),
            ("contact_terms", ((math.nan, ((1, 1),)),)),
        ],
    )
    def test_non_finite_values(self, field, value):
        for kind in ("periodic_correction", "intro_example", "scaling_sweep"):
            with pytest.raises(ConfigError, match="finite"):
                Scenario(kind=kind, code="repetition-3", **{field: value})

    @pytest.mark.parametrize(
        "start, end, spacing",
        [(1e-3, math.inf, "log"), (math.nan, 1.0, "linear"), (-math.inf, 1.0, "linear"), (0.1, math.nan, "log")],
    )
    def test_non_finite_grid_ends(self, start, end, spacing):
        with pytest.raises(ConfigError, match="time grid ends must be finite"):
            Scenario(kind="scaling_sweep", t_start=start, t_end=end, t_points=10, t_spacing=spacing)


def nontrivial_scenario() -> Scenario:
    """A scenario with every field away from its default."""
    return Scenario(
        kind="periodic_correction",
        code="repetition-5",
        seed=1234,
        out="results/deep",
        plots=False,
        env_dim=3,
        coupling_bound=0.75,
        beta=1.25,
        interaction_kind="contact",
        contact_terms=((0.9, ((1, 1), (1, 2))), (1.1, ((2, 4),))),
        t_start=1e-4, t_end=0.25, t_points=21, t_spacing="linear",
        state_theta=0.31,
        state_phi=2.9,
        single_flip_omegas=(1.0, 2.0, 3.0, 4.0, 5.0),
        pair_flip=((1, 5, 0.123456789012345),),
        dt=0.0625,
        cycles=55,
        halvings=3,
        n_min=2,
        n_max=11,
        k_min=1,
        k_max=2,
    )


def canonical_text(sections) -> str:
    """One ``[section]`` header and its ``key = value`` lines per section, sections split by a blank line."""
    return "\n".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) for name, lines in sections)


DEFAULT_TEXT = canonical_text([
    ("scenario", ["kind = scaling_sweep", "code = five_qubit", "seed = 42", "out = out", "plots = true", "max_dim = 4096"]),
    ("environment", ["d_e = 2", "coupling_bound = 1.0", "beta = 0.0"]),
    ("interaction", ["kind = non_contact", "terms = "]),
    ("time_grid", ["start = 0.0005", "end = 0.008", "points = 14", "spacing = log"]),
    ("state", ["theta = 1.2", "phi = 0.5"]),
    ("single_flip", ["omegas = 0.9, 1.1, 0.75, 1.3, 0.85"]),
    ("pair_flip", ["pairs = 1-2:0.8, 1-3:0.7, 2-3:0.65, 3-4:1.05, 4-5:0.95"]),
    ("correction", ["dt = 0.12", "cycles = 40", "halvings = 2"]),
    ("bounds", ["n_min = 1", "n_max = 20", "k_min = 0", "k_max = 3"]),
])

NONTRIVIAL_TEXT = canonical_text([
    ("scenario", ["kind = periodic_correction", "code = repetition-5", "seed = 1234", "out = results/deep",
                  "plots = false", "max_dim = 4096"]),
    ("environment", ["d_e = 3", "coupling_bound = 0.75", "beta = 1.25"]),
    ("interaction", ["kind = contact", "terms = 0.9:x1 x2, 1.1:y4"]),
    ("time_grid", ["start = 0.0001", "end = 0.25", "points = 21", "spacing = linear"]),
    ("state", ["theta = 0.31", "phi = 2.9"]),
    ("single_flip", ["omegas = 1.0, 2.0, 3.0, 4.0, 5.0"]),
    ("pair_flip", ["pairs = 1-5:0.123456789012345"]),
    ("correction", ["dt = 0.0625", "cycles = 55", "halvings = 3"]),
    ("bounds", ["n_min = 2", "n_max = 11", "k_min = 1", "k_max = 2"]),
])


class TestRoundTrip:
    def test_default_scenario(self):
        s = Scenario(kind="scaling_sweep")
        assert parse_scenario(serialize_scenario(s)) == s

    def test_nontrivial_scenario(self):
        s = nontrivial_scenario()
        assert parse_scenario(serialize_scenario(s)) == s

    def test_canonical_text_of_default_scenario(self):
        # the exact document, so a reordered or reformatted one fails where a round trip would pass
        assert serialize_scenario(Scenario(kind="scaling_sweep")) == DEFAULT_TEXT

    def test_canonical_text_of_nontrivial_scenario(self):
        assert serialize_scenario(nontrivial_scenario()) == NONTRIVIAL_TEXT

    def test_repr_floats_survive(self):
        s = Scenario(kind="scaling_sweep", coupling_bound=1.0 / 3.0, state_phi=0.1 + 0.2)
        assert parse_scenario(serialize_scenario(s)) == s

    def test_all_fields_covered_by_serializer(self):
        # every field appears in the canonical document, so nothing is lost
        s = Scenario(kind="scaling_sweep")
        text = serialize_scenario(s)
        reparsed = parse_scenario(text)
        for f in dataclasses.fields(Scenario):
            assert getattr(reparsed, f.name) == getattr(s, f.name)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _time_grids(draw, max_points):
    spacing = draw(st.sampled_from(("linear", "log")))
    low = st.floats(min_value=0.0, exclude_min=spacing == "log", allow_infinity=False)
    start, end = draw(low), draw(low)
    assume(start != end)
    points = draw(st.integers(8, max_points))
    return dict(t_start=min(start, end), t_end=max(start, end), t_points=points, t_spacing=spacing)


@st.composite
def _pair_flips(draw, n):
    pairs = draw(st.sets(st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] < p[1]), max_size=6))
    items = [(l, k) if draw(st.booleans()) else (k, l) for k, l in pairs]
    return tuple(sorted((k, l, draw(_finite)) for k, l in items))


@st.composite
def _ordered(draw, low, high):
    a, b = draw(st.integers(low, high)), draw(st.integers(low, high))
    return min(a, b), max(a, b)


@st.composite
def _scenario_fields(draw):
    """Fields of scenarios that ``Scenario`` accepts, but for ``out``, which is any non-empty text.
    Where a kind checks a value against the code's length n (contact positions, flip drives, the
    sizing cap), dt against the halvings, or a count against its sizing budget, only valid values
    are drawn."""
    kind = draw(st.sampled_from(KINDS))
    span = 40 if kind == "bounds_table" else 10 ** 6  # a table over n, k <= 40 stays inside BOUNDS_BUDGET
    n_min, n_max = draw(_ordered(1, span))
    k_min, k_max = draw(_ordered(0, span))
    intro = kind == "intro_example"
    code = draw(st.sampled_from([c for c, row in CODES.items() if row[2] == AMPLITUDE_ONLY or not intro]))
    n = len(CODES[code][0]) + 1
    interaction_kind = "non_contact" if kind == "bound_check" else draw(st.sampled_from(("non_contact", "contact")))
    contact = kind in CONTACT_KINDS and interaction_kind == "contact"
    if contact:  # distinct positions in 1..n, at least one term
        factors = st.lists(st.tuples(st.integers(1, 3), st.integers(1, n)), min_size=1, max_size=4, unique_by=lambda f: f[1])
    else:
        factors = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 99)), min_size=1, max_size=4)
    env_dim = draw(st.integers(1, 10 ** 3 if kind == "bounds_table" else 8))  # d_e <= 8 keeps every budget >= 60
    env = 1 if intro or contact else env_dim
    joint = 2 if kind == "bounds_table" else max(2, env * 2 ** n)
    block = 2 * env * env * 2 ** n
    halvings = draw(st.integers(0, 60))
    max_points = min(ROW_BUDGET, BLOCK_BUDGET // block) if kind in GRID_KINDS else 10 ** 6
    max_cycles = SAMPLE_BUDGET // (halvings + 1) - 1 if kind == "periodic_correction" else 10 ** 6
    return dict(
        kind=kind,
        code=code,
        seed=draw(st.integers(0, 2 ** 70)),
        out=draw(st.text(min_size=1, max_size=12)),  # an empty out is rejected
        plots=draw(st.booleans()),
        max_dim=draw(st.integers(joint, 10 ** 9)),
        env_dim=env_dim,
        coupling_bound=draw(st.floats(min_value=0.0, exclude_min=kind == "bound_check", allow_infinity=False)),
        beta=draw(_finite),
        interaction_kind=interaction_kind,
        contact_terms=tuple(draw(st.lists(st.tuples(_finite, factors.map(tuple)), min_size=int(contact), max_size=4))),
        **draw(_time_grids(max_points)),
        state_theta=draw(_finite),
        state_phi=draw(_finite),
        single_flip_omegas=tuple(draw(st.lists(_finite, min_size=n if intro else 0, max_size=n if intro else 6))),
        pair_flip=draw(_pair_flips(n if intro else 9)),
        dt=draw(st.floats(min_value=math.ldexp(sys.float_info.min, halvings), allow_infinity=False)),
        cycles=draw(st.integers(10, max_cycles)),
        halvings=halvings,
        n_min=n_min,
        n_max=n_max,
        k_min=k_min,
        k_max=k_max,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_scenario_fields())
def test_round_trip_property(fields):
    # a drawn out is either refused at construction, as one the file format cannot carry, or round-trips exactly
    try:
        scenario = Scenario(**fields)
    except ConfigError as exc:
        assert str(exc).startswith(f"[scenario] out {fields['out']!r} would not read back")
        return
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


@pytest.mark.parametrize("out", ["runs/a#b", " lead", "trail ", "x\ny", "x\r", "a\u2028b", "a\x0cb"])
def test_out_that_would_not_read_back_rejected(out):
    # '#' starts a comment, a line break ends the value, and the parser strips the value's edges
    with pytest.raises(ConfigError, match="would not read back") as exc:
        Scenario(kind="bounds_table", out=out)
    assert len(str(exc.value).splitlines()) == 1


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read scenario"):
        load_scenario(str(tmp_path / "absent.cfg"))


def test_load_scenario_reads_file(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(MINIMAL, encoding="utf-8")
    assert load_scenario(str(path)).kind == "bounds_table"


def test_shipped_scenarios_parse():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(root.glob("*.cfg"))
    assert len(files) == 6
    kinds = {load_scenario(str(f)).kind for f in files}
    assert kinds == {
        "scaling_sweep",
        "intro_example",
        "bounds_table",
        "periodic_correction",
        "bound_check",
    }
