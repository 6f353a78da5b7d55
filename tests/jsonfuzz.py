"""Hypothesis helpers for the JSON loaders: arbitrary JSON values, and
every key path of a saved document at which to put one."""

import copy

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)


def key_paths(doc: dict, path=()):
    """Every path of object keys in ``doc``, outer key first."""
    for key, value in doc.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


def with_value(doc: dict, path, value) -> dict:
    """A copy of ``doc`` holding ``value`` at the key ``path``."""
    doc = copy.deepcopy(doc)
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    return doc
