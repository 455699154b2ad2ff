"""``scenario._merge_dirichlet`` against the dict loop it replaced
(``element_loop.merge_dirichlet``): random overlapping entries, and the
entries every preset's set-up merges."""

import numpy as np
import pytest

from thmfrac import presets, scenario

from element_loop import merge_dirichlet

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# few dofs, so that entries overlap
ENTRIES = st.lists(st.tuples(st.lists(st.integers(0, 12), max_size=6),
                             st.floats(allow_nan=False, allow_infinity=False)),
                   max_size=6)


def _assert_same(got, ref):
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@hypothesis.given(ENTRIES)
def test_bulk_merge_is_the_dict_loop(entries):
    entries = [(np.array(dofs, dtype=np.int64), value) for dofs, value in entries]
    _assert_same(scenario._merge_dirichlet(entries), merge_dirichlet(entries))


@pytest.mark.parametrize("name, kwargs", [(name, {}) for name in presets.PRESETS]
                         + [("kgd", {"fast": False}), ("single_fracture", {"dT": 90.0})])
def test_every_preset_merges_its_entries_as_the_dict_loop(name, kwargs, monkeypatch):
    calls = []
    merge = scenario._merge_dirichlet

    def recorded(entries):
        calls.append((list(entries), merge(entries)))
        return calls[-1][1]

    monkeypatch.setattr(scenario, "_merge_dirichlet", recorded)
    scenario.build_simulation(presets.get_preset(name, **kwargs))
    assert len(calls) == 3     # u, p and T
    for entries, got in calls:
        _assert_same(got, merge_dirichlet(entries))
