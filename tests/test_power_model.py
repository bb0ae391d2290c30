import pytest

from socrm.power_model import APU, PL, PowerModel

TABLE_ROWS = {
    (APU, 8): (425, 2064, 1187, 3676),
    (APU, 1024): (537, 2224, 1187, 3948),
    (PL, 2048): (965, 2024, 1365, 4354),
    (PL, 4096): (1358, 2024, 1584, 4966),
}


@pytest.fixture
def model():
    return PowerModel()


@pytest.mark.parametrize("config,row", TABLE_ROWS.items())
def test_breakdown_rows(model, config, row):
    b = model.power_breakdown(*config)
    assert (b.ddr_mw, b.apu_mw, b.pl_mw, b.total_mw) == row


@pytest.mark.parametrize("config", TABLE_ROWS)
def test_additivity(model, config):
    b = model.power_breakdown(*config)
    assert b.total_mw == b.ddr_mw + b.apu_mw + b.pl_mw


def test_static_rail_marks_non_hosting_domain(model):
    assert model.power_breakdown(APU, 8).static_rails == {PL}
    assert model.power_breakdown(PL, 2048).static_rails == {APU}


def test_inactive_rail_equals_static_constant(model):
    # the rows are the one home of each rail's static power
    assert {model.power_breakdown(APU, n).pl_mw for n in (8, 1024)} == {1187}
    assert {model.power_breakdown(PL, n).apu_mw for n in (2048, 4096)} == {2024}


def test_static_below_active(model):
    assert model.power_breakdown(APU, 8).pl_mw < model.power_breakdown(PL, 2048).pl_mw


def test_total_monotone_in_points(model):
    totals = [model.power_breakdown(d, p).total_mw for d, p in model.configurations()]
    assert totals == sorted(totals)


def test_ddr_strictly_increasing(model):
    ddr = [model.power_breakdown(d, p).ddr_mw for d, p in model.configurations()]
    assert all(a < b for a, b in zip(ddr, ddr[1:]))


def test_uncalibrated_configuration_rejected(model):
    with pytest.raises(KeyError, match="no calibrated power row"):
        model.power_breakdown(PL, 8)
    with pytest.raises(KeyError, match="no calibrated power row"):
        model.power_breakdown(APU, 4096)


def test_profile_is_read_only(model):
    with pytest.raises(TypeError):
        model.profile[(APU, 8)] = (0.0, 0.0, 0.0)
    with pytest.raises(TypeError):
        del model.profile[(APU, 8)]


def test_rows_do_not_follow_the_callers_table():
    table = {(APU, 8): (1.0, 2.0, 3.0)}
    model = PowerModel(profile=table)
    table[(APU, 8)] = (9.0, 9.0, 9.0)
    table[(PL, 8)] = (1.0, 1.0, 1.0)
    assert model.power_breakdown(APU, 8).total_mw == 6.0
    with pytest.raises(KeyError, match="no calibrated power row"):
        model.power_breakdown(PL, 8)


@pytest.mark.parametrize("config", TABLE_ROWS)
def test_repeated_lookups_return_equal_rows(model, config):
    first = model.power_breakdown(*config)
    assert all(model.power_breakdown(*config) == first for _ in range(3))
    assert PowerModel().power_breakdown(*config) == first
