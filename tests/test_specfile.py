from fractions import Fraction

import pytest

from fifkit import (
    MixedScalarWarning,
    SpecFormatError,
    dyadic_parabola_system,
    emit_ifs_text,
    four_piece_overlap_system,
    mixed_ratio_parabola_system,
    parse_ifs_file,
    parse_ifs_text,
    write_ifs_file,
)

GOOD = """\
# two maps drawing a parabola
param w = 1/2
interval 0 1
map w 1/4 0 0 0      ; first piece
map w 1/4 1/2 w 1/4
"""


def test_parse_basic():
    system = parse_ifs_text(GOOD)
    assert system.exact
    assert system.interval == (Fraction(0), Fraction(1))
    assert len(system) == 2
    assert system.maps == dyadic_parabola_system().maps


def test_params_substitute_anywhere():
    system = parse_ifs_text(
        "param a = -1/4\nparam b = 2\ninterval a b\nmap 1/2 a 0 a 0\n"
    )
    assert system.interval == (Fraction(-1, 4), Fraction(2))
    assert system.maps[0].q == Fraction(-1, 4)
    assert system.maps[0].h == Fraction(-1, 4)


def test_decimals_give_float_system():
    system = parse_ifs_text("interval 0 1\nmap 0.5 0.25 0.0 0.0 0.0\n")
    assert not system.exact
    assert isinstance(system.maps[0].p, float)


def test_mixed_scalars_warn():
    with pytest.warns(MixedScalarWarning):
        system = parse_ifs_text("interval 0 1\nmap 1/2 0.25 0 0 0\n")
    assert not system.exact


def test_round_trip_value_identical():
    for system in (four_piece_overlap_system(), dyadic_parabola_system(),
                   mixed_ratio_parabola_system()):
        again = parse_ifs_text(emit_ifs_text(system))
        assert again.maps == system.maps
        assert again.interval == system.interval


def test_round_trip_float_system():
    system = parse_ifs_text("interval 0.0 1.0\nmap 0.5 0.3 0.1 0.0 0.07\n")
    again = parse_ifs_text(emit_ifs_text(system))
    assert again.maps == system.maps


def test_file_round_trip(tmp_path):
    path = tmp_path / "sys.ifs"
    write_ifs_file(path, mixed_ratio_parabola_system())
    assert parse_ifs_file(path).maps == mixed_ratio_parabola_system().maps


@pytest.mark.parametrize("text,fragment", [
    ("map 1/2 1/4 0 0 0\n", "interval"),
    ("interval 0 1\n", "map"),
    ("interval 0 1\ninterval 0 2\nmap 1/2 1/4 0 0 0\n", "interval"),
    ("interval 1 1\nmap 1/2 1/4 0 0 0\n", "interval"),
    ("interval 0 1\nmap 1/2 1/4 0 0\n", "map"),
    ("interval 0 1\nmap 1/2 1/4 0 0 0 0\n", "map"),
    ("interval 0 1\nmap 1/2 1/4 0 zz 0\n", "zz"),
    ("interval 0 1\nfrobnicate 3\nmap 1/2 1/4 0 0 0\n", "frobnicate"),
    ("param x\ninterval 0 1\nmap 1/2 1/4 0 0 0\n", "param"),
    ("param x = 1\nparam x = 2\ninterval 0 1\nmap x 1/4 0 0 0\n", "duplicate"),
    ("param map = 1\ninterval 0 1\nmap 1/2 1/4 0 0 0\n", "map"),
    ("param 12 = 1\ninterval 0 1\nmap 1/2 1/4 0 0 0\n", "12"),
    ("param 1/2 = 1/3\ninterval 0 1\nmap 1/2 1/4 0 0 0\n", "1/2"),
    ("interval 0 1\nmap 0.5 0.5 0 0 0\nmap 0.5 0.5 0 inf 0\n", "map 2: h = inf"),
    ("interval 0 nan\nmap 0.5 0.5 0 0 0\n", "interval: b = nan"),
])
def test_format_errors(text, fragment):
    with pytest.raises(SpecFormatError) as err:
        parse_ifs_text(text)
    assert fragment in str(err.value)


def test_error_carries_location():
    with pytest.raises(SpecFormatError) as err:
        parse_ifs_text("interval 0 1\nmap 1/2 1/4 0 bad 0\n", name="demo.ifs")
    assert "demo.ifs" in str(err.value)
    assert "2" in str(err.value)


def test_comments_and_blank_lines_ignored():
    system = parse_ifs_text(
        "\n# comment\n   ; another\ninterval 0 1\n\nmap 1/2 1/4 0 0 0 # tail\n"
    )
    assert len(system) == 1
