import dataclasses

import numpy as np
import pytest

from decoq.errors import ConfigError
from decoq.scenario import (
    Scenario,
    TimeGrid,
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
        assert s.time_grid == TimeGrid()

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
            parse_scenario("[scenario]\nkind = scaling_sweep\ncode = steane\n")

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
        grid = TimeGrid(1e-3, 1e-1, 5, "log")
        assert np.allclose(grid.times(), np.geomspace(1e-3, 1e-1, 5))

    def test_linear_times(self):
        grid = TimeGrid(0.0, 1.0, 6, "linear")
        assert np.allclose(grid.times(), np.linspace(0.0, 1.0, 6))

    def test_validation(self):
        with pytest.raises(ConfigError):
            TimeGrid(0.2, 0.1, 5, "log")
        with pytest.raises(ConfigError):
            TimeGrid(0.0, 1.0, 5, "log")
        with pytest.raises(ConfigError):
            TimeGrid(0.1, 0.2, 0, "log")
        with pytest.raises(ConfigError):
            TimeGrid(0.1, 0.2, 5, "cubic")

    def test_grid_keys_override(self):
        text = "[scenario]\nkind = scaling_sweep\n[time_grid]\nstart = 0.001\npoints = 9\n"
        s = parse_scenario(text)
        assert s.time_grid.start == 0.001
        assert s.time_grid.points == 9
        assert s.time_grid.end == TimeGrid().end


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


class TestRoundTrip:
    def test_default_scenario(self):
        s = Scenario(kind="scaling_sweep")
        assert parse_scenario(serialize_scenario(s)) == s

    def test_nontrivial_scenario(self):
        s = Scenario(
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
            time_grid=TimeGrid(1e-4, 0.25, 21, "linear"),
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
        assert parse_scenario(serialize_scenario(s)) == s

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
