"""Paper-table tests: every cell against a direct evaluation, and the work per row.

``table_rows`` reads all orders of a row from one expansion's partial
sums; these tests pin that the cells are exactly what one expansion call
per (row, order) would give, and that a row costs one call of each kind.
"""

from fractions import Fraction

import pytest

import pearcey.tables
from pearcey import PRESETS, pearcey_asymptotic, pearcey_quadrature, relative_error
from pearcey.tables import TableRow, TableSpec, table_rows


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cells_equal_direct_evaluation(preset):
    spec = PRESETS[preset]
    expected = []
    for row in spec.rows:
        reference = pearcey_quadrature(spec.x, row.y)
        for order in spec.orders:
            approx = pearcey_asymptotic(spec.x, row.y, order).value
            expected.append((row.label, order, relative_error(approx, reference)))
    assert list(table_rows(spec)) == expected


def test_order_subset():
    full = {(label, order): err for label, order, err in table_rows(PRESETS[1])}
    spec = TableSpec(x=PRESETS[1].x, rows=PRESETS[1].rows, orders=(0, 2, 5))
    cells = list(table_rows(spec))
    assert [(label, order) for label, order, _ in cells] == [
        (row.label, order) for row in spec.rows for order in (0, 2, 5)]
    for label, order, err in cells:
        assert err == full[label, order]


def test_one_call_of_each_kind_per_row(monkeypatch):
    calls = {"asymptotic": [], "quadrature": 0}

    def counting_asymptotic(x, y, order=5):
        calls["asymptotic"].append(order)
        return pearcey_asymptotic(x, y, order)

    def counting_quadrature(x, y, config=None):
        calls["quadrature"] += 1
        return pearcey_quadrature(x, y, config)

    monkeypatch.setattr(pearcey.tables, "pearcey_asymptotic", counting_asymptotic)
    monkeypatch.setattr(pearcey.tables, "pearcey_quadrature", counting_quadrature)
    spec = PRESETS[2]
    cells = list(table_rows(spec))
    assert len(cells) == len(spec.rows) * len(spec.orders)
    assert calls["asymptotic"] == [max(spec.orders)] * len(spec.rows)
    assert calls["quadrature"] == len(spec.rows)


def test_negative_order_rejected():
    spec = TableSpec(x=1.0, rows=(TableRow(10.0, Fraction(0)),), orders=(-1, 2))
    with pytest.raises(ValueError, match="precondition"):
        list(table_rows(spec))
