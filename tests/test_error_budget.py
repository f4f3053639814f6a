"""Two-pulse error budget combination and its JSON formats."""

from __future__ import annotations

from importlib import resources

import pytest

from shelveread.error_budget import (
    BudgetEntry,
    BudgetReport,
    PulseGroup,
    combine,
    read_budget_json,
    read_report_json,
    write_budget_json,
    write_report_json,
)


@pytest.fixture(scope="module")
def bundled_budgets():
    path = resources.files("shelveread").joinpath("data/shelving_budget.json")
    return read_budget_json(str(path))


def test_bundled_up_budget(bundled_budgets):
    report = combine(bundled_budgets["up"])
    assert report.initialization_total == pytest.approx(1.5e-4, rel=1e-12)
    # (98.1 * 136) * 1e-8 product plus the 1e-4 excluded decay source
    assert report.shelving_total == pytest.approx(2.33416e-4, abs=1e-12)
    assert report.overall == pytest.approx(3.83416e-4, abs=1e-12)


def test_bundled_down_budget(bundled_budgets):
    report = combine(bundled_budgets["down"])
    assert report.initialization_total == pytest.approx(1.5e-4, rel=1e-12)
    assert report.shelving_total == pytest.approx(3.0e-4, rel=1e-12)
    assert report.overall == pytest.approx(4.5e-4, rel=1e-12)


def test_single_pulse_group_degenerates_to_sum():
    entries = [
        BudgetEntry("a", PulseGroup.PULSE1, 2e-3),
        BudgetEntry("b", PulseGroup.PULSE1, 1e-3),
    ]
    assert combine(entries).shelving_total == pytest.approx(3e-3, rel=1e-12)


def test_two_pulse_product():
    entries = [
        BudgetEntry("a", PulseGroup.PULSE1, 2e-2),
        BudgetEntry("b", PulseGroup.PULSE2, 3e-2),
        BudgetEntry("c", PulseGroup.PULSE2, 1e-2),
    ]
    assert combine(entries).shelving_total == pytest.approx(2e-2 * 4e-2, rel=1e-12)


def test_zero_value_pulse_entry_still_marks_presence():
    # a measured-zero source keeps its pulse in the product rule
    entries = [
        BudgetEntry("a", PulseGroup.PULSE1, 5e-3),
        BudgetEntry("b", PulseGroup.PULSE2, 0.0),
    ]
    assert combine(entries).shelving_total == 0.0


def test_excluded_sources_add_after_product():
    entries = [
        BudgetEntry("a", PulseGroup.PULSE1, 1e-2),
        BudgetEntry("b", PulseGroup.PULSE2, 1e-2),
        BudgetEntry("c", PulseGroup.PULSE1, 5e-4, excluded_from_product=True),
    ]
    assert combine(entries).shelving_total == pytest.approx(1e-4 + 5e-4, rel=1e-12)


def test_shared_entries_are_always_excluded():
    entry = BudgetEntry("decay", PulseGroup.SHARED, 1e-4)
    assert entry.excluded_from_product
    entry = BudgetEntry("decay", "shared", 1e-4, excluded_from_product=False)
    assert entry.excluded_from_product  # coerced
    report = combine([entry])
    assert report.shelving_total == pytest.approx(1e-4, rel=1e-12)


def test_initialization_is_additive_and_separate():
    entries = [
        BudgetEntry("pump", PulseGroup.INITIALIZATION, 1e-4),
        BudgetEntry("leak", PulseGroup.INITIALIZATION, 0.5e-4),
        BudgetEntry("a", PulseGroup.PULSE1, 1e-2),
    ]
    report = combine(entries)
    assert report.initialization_total == pytest.approx(1.5e-4, rel=1e-12)
    assert report.shelving_total == pytest.approx(1e-2, rel=1e-12)
    assert report.overall == report.initialization_total + report.shelving_total


def test_combine_order_invariant(bundled_budgets):
    entries = bundled_budgets["up"]
    assert combine(entries) == combine(list(reversed(entries)))


def test_empty_budget():
    report = combine([])
    assert report.initialization_total == 0.0
    assert report.shelving_total == 0.0
    assert report.overall == 0.0


def test_entry_validation():
    with pytest.raises(ValueError):
        BudgetEntry("a", PulseGroup.PULSE1, -1e-4)
    with pytest.raises(ValueError):
        BudgetEntry("a", PulseGroup.PULSE1, float("nan"))
    with pytest.raises(ValueError):
        BudgetEntry("a", "pulse3", 1e-4)
    entry = BudgetEntry("a", "pulse1", 1e-4)  # string names are accepted
    assert entry.pulse is PulseGroup.PULSE1


def test_report_validation():
    with pytest.raises(ValueError):
        BudgetReport(initialization_total=-1e-4, shelving_total=0.0)
    with pytest.raises(ValueError):
        BudgetReport(initialization_total=1e-4, shelving_total=2e-4, overall=4e-4)
    report = BudgetReport(initialization_total=1e-4, shelving_total=2e-4)
    assert report.overall == pytest.approx(3e-4, rel=1e-15)


def test_budget_json_round_trip(tmp_path, bundled_budgets):
    path = tmp_path / "budget.json"
    write_budget_json(bundled_budgets, path, metadata={"tool": "test"})
    back = read_budget_json(path)  # metadata key is skipped on read
    assert back == bundled_budgets


def test_budget_json_accepts_bare_list(tmp_path):
    path = tmp_path / "budget.json"
    path.write_text('[{"source": "a", "pulse": "pulse1", "value": 1e-4}]\n')
    budgets = read_budget_json(path)
    assert list(budgets) == ["budget"]
    assert budgets["budget"][0].value == 1e-4
    bad = tmp_path / "bad.json"
    bad.write_text('{"up": 3}\n')
    with pytest.raises(ValueError):
        read_budget_json(bad)
    scalar = tmp_path / "scalar.json"
    scalar.write_text("3\n")
    with pytest.raises(ValueError):
        read_budget_json(scalar)
    # a bad entry is a one-line ValueError that names the file
    for entry in (
        '{"source": "a", "pulse": "pulse1"}',
        '{"source": "a", "pulse": "pulse1", "value": "0.1"}',
        '{"source": "a", "pulse": "pulse1", "value": true}',
        '{"source": "a", "pulse": "pulse1", "value": 1e-4, "note": "x"}',
        '{"source": "a", "pulse": "pulse9", "value": 1e-4}',
        "3",
    ):
        bad.write_text(f"[{entry}]\n")
        with pytest.raises(ValueError) as info:
            read_budget_json(bad)
        assert str(info.value).startswith(f"{bad}: ") and "\n" not in str(info.value), entry


def test_report_json_round_trip(tmp_path, bundled_budgets):
    reports = {name: combine(entries) for name, entries in bundled_budgets.items()}
    path = tmp_path / "report.json"
    write_report_json(reports, path, metadata={"seed": 0})
    back = read_report_json(path)
    assert back == reports
    # a malformed file is a one-line ValueError that names it
    for payload in ("[1, 2]", '{"a": {"x": 1}}', '{"a": 3}'):
        path.write_text(payload + "\n")
        with pytest.raises(ValueError) as info:
            read_report_json(path)
        assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value), payload
