import dataclasses

import pytest

from dramcam import (ConfigError, DeviceConfig, EnergyModel, GEOMETRY_NARROW,
                     SystemConfig, TimingModel, dump_config, parse_config_text)
from dramcam.config import _BOOL_KEYS, _FLOAT_KEYS, _INT_KEYS


def test_default_timing_matches_ddr3_1600():
    t = TimingModel()
    assert t.t_rp_ns == pytest.approx(13.75)
    assert t.t_ras_ns == pytest.approx(35.0)


def test_threshold_ordering_enforced():
    with pytest.raises(ConfigError):
        TimingModel(t_multi_threshold=6, t_copy_threshold=6)
    with pytest.raises(ConfigError):
        TimingModel(t_copy_threshold=11)  # not below t_rp
    with pytest.raises(ConfigError):
        TimingModel(copy_gap=1, multi_gap=1)  # gaps must be ordered too
    with pytest.raises(ConfigError):
        TimingModel(multi_gap=2)  # would not classify below t_multi


def test_device_geometry_validation():
    with pytest.raises(ConfigError):
        DeviceConfig(rows_per_subarray=7)  # odd
    with pytest.raises(ConfigError):
        DeviceConfig(rows_per_subarray=6)  # below minimum
    with pytest.raises(ConfigError):
        DeviceConfig(chips=0)


def test_energy_nonnegative():
    with pytest.raises(ConfigError):
        EnergyModel(act_pj=-1.0)


def test_narrow_geometry_preset():
    dev = DeviceConfig(**GEOMETRY_NARROW)
    assert dev.rows_per_subarray == 128 and dev.cols_per_subarray == 64


def test_total_columns():
    dev = DeviceConfig(chips=2, banks_per_chip=3, subarrays_per_bank=4,
                       cols_per_subarray=10, rows_per_subarray=16)
    assert dev.total_columns == 240


def test_config_text_round_trip():
    cfg = SystemConfig(
        device=DeviceConfig(chips=4, rows_per_subarray=64,
                            timing=TimingModel(t_ras=30, strict=False)),
        energy=EnergyModel(act_pj=10.0),
        host_assign_ns=99.0)
    again = parse_config_text(dump_config(cfg))
    assert again == cfg


def test_config_parse_comments_and_defaults():
    cfg = parse_config_text("# comment\nchips = 2\n\nact_pj = 5.5\n")
    assert cfg.device.chips == 2
    assert cfg.energy.act_pj == 5.5
    assert cfg.device.rows_per_subarray == 128  # default retained


@pytest.mark.parametrize("text", [
    "bogus_key = 1",
    "chips = lots",
    "strict_timing = maybe",
    "chips 2",
    "t_rcd = 11",                    # keys no code ever read
    "refresh_interval = 51200000",
])
def test_config_parse_rejects_bad_lines(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


@pytest.mark.parametrize("key", sorted(_INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS))
def test_every_accepted_key_is_consumed(key):
    """A key on its own lands in the parsed config, or a validator rejects it."""
    defaults = dict(line.split(" = ")
                    for line in dump_config(SystemConfig()).splitlines())
    old = defaults[key]
    if key in _BOOL_KEYS:
        new = "false" if old == "true" else "true"
    elif key in _FLOAT_KEYS:
        new = str(2 * float(old))
    else:
        new = str(int(old) + 2)
    try:
        cfg = parse_config_text(f"{key} = {new}\n")
    except ConfigError:
        return  # the value reached a validator, so it was consumed
    assert f"{key} = {new}\n" in dump_config(cfg)


@pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
def test_non_finite_float_is_rejected(key):
    """NaN passes every ordered comparison's negation, and an infinite
    clock or energy turns every report into nan or inf."""
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value}\n")


def test_default_dump_is_frozen():
    assert dump_config(SystemConfig()) == """\
chips = 16
banks_per_chip = 8
subarrays_per_bank = 1
rows_per_subarray = 128
cols_per_subarray = 8192
clock_ns = 1.25
t_ras = 28
t_rp = 11
t_copy_threshold = 6
t_multi_threshold = 2
copy_gap = 2
multi_gap = 1
strict_timing = true
act_pj = 60.0
pre_pj = 25.0
micro_op_pj = 15.0
background_mw = 1.0
host_assign_ns = 450.0
"""


def test_keys_follow_the_config_fields():
    """Every scalar field of the config dataclasses is a key of its type."""
    expected = {}
    for cls in (DeviceConfig, TimingModel, EnergyModel, SystemConfig):
        for f in dataclasses.fields(cls):
            value = getattr(cls(), f.name)
            if not dataclasses.is_dataclass(value):
                key = "strict_timing" if f.name == "strict" else f.name
                expected[key] = type(value)
    assert {**dict.fromkeys(_INT_KEYS, int), **dict.fromkeys(_FLOAT_KEYS, float),
            **dict.fromkeys(_BOOL_KEYS, bool)} == expected
