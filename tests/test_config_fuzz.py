"""Any JSON value at any place of a preset's dict parses or is a ConfigError."""

import copy
import json

import pytest

from thmfrac.config import config_from_dict, config_to_dict
from thmfrac.errors import ConfigError
from thmfrac.presets import PRESETS, get_preset

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRESET_DICTS = [json.loads(json.dumps(config_to_dict(get_preset(name)))) for name in PRESETS]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8)


def places(node, prefix=()):
    """The key paths of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for k, v in items:
        yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from places(v, prefix + (k,))


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(data=st.data())
def test_any_json_value_anywhere_parses_or_raises_config_error(data):
    raw = copy.deepcopy(data.draw(st.sampled_from(PRESET_DICTS)))
    place = data.draw(st.sampled_from(list(places(raw))))
    node = raw
    for k in place[:-1]:
        node = node[k]
    node[place[-1]] = data.draw(JSON_VALUES)
    try:
        config_from_dict(raw)
    except ConfigError:
        pass
