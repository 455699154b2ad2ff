"""A scenario's set-up against reference loops: ``scenario._merge_dirichlet``
against the dict loop it replaced (``element_loop.merge_dirichlet``), on
random overlapping entries and the entries every preset's set-up merges,
and every preset's crack and injection nodes against searches over every
node."""

import numpy as np
import pytest

from thmfrac import presets, scenario

import element_loop as ref
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


_PRESETS = pytest.mark.parametrize(
    "name, kwargs", [(name, {}) for name in presets.PRESETS]
    + [("kgd", {"fast": False}), ("single_fracture", {"dT": 90.0})])


@_PRESETS
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


@_PRESETS
def test_every_preset_finds_its_nodes_on_the_grid_lines(name, kwargs):
    cfg = presets.get_preset(name, **kwargs)
    sim = scenario.build_simulation(cfg)
    mesh = sim.mesh
    # the crack and injection searches read the grid lines, not the node
    # coordinates
    assert "nodes" not in mesh.__dict__
    tol = 1e-3 * float(mesh.h_e.min())
    cracks = [ref.nodes_on_segment(mesh, *seg, tol) for seg in cfg.cracks]
    assert sim.crack_nodes.tolist() == (np.unique(np.concatenate(cracks)).tolist()
                                        if cracks else [])
    if cfg.injection is not None:
        node = ref.nearest_node(mesh, *cfg.injection.point)
        assert np.flatnonzero(sim.q_flow).tolist() == [node]
