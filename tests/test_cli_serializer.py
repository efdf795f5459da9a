"""The report serializer writes the bytes of its reference.

_fmt_float and _jdump below are the serializer as it stood before it
checked exact types first and quoted strings with json's own encoder:
one np.isnan/np.isinf test and one json.dumps call per value.  The
serializer in gmfkit.cli must write the same text for every report
value and refuse the same values with the same CliError.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmfkit import cli
from gmfkit.cli import CliError


def _fmt_float(v: float) -> str:
    if np.isnan(v):
        return '"nan"'
    if np.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return format(float(v), ".17g")


def _jdump(obj, indent=0) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _jdump(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_jdump(v, indent + 1) for v in obj]
        return "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        lines = [
            f'{pad}  {json.dumps(str(k))}: {_jdump(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    raise CliError(f"unserializable value of type {type(obj).__name__}")


_EDGE = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]
floats = st.one_of(st.sampled_from(_EDGE), st.floats(allow_nan=True, allow_infinity=True))


def _np_floats(v):
    with np.errstate(over="ignore"):  # float32/float16 round a large v to inf
        return st.sampled_from([np.float64(v), np.float32(v), np.float16(v)])


np_floats = floats.flatmap(_np_floats)
ints = st.integers(-(2**70), 2**70)
np_ints = st.integers(-(2**31), 2**31 - 1).flatmap(lambda v: st.sampled_from([np.int64(v), np.int32(v), np.intp(v)]))
# quotes, backslashes, control characters and text outside ASCII
texts = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "λ", " ", "😀", "a"])),
)
arrays = st.one_of(
    st.lists(floats, max_size=5).map(lambda v: np.array(v, dtype=float)),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.lists(floats, min_size=9, max_size=9)).map(
        lambda t: np.array(t[2][: t[0] * t[1]], dtype=float).reshape(t[0], t[1])
    ),
    st.lists(ints.filter(lambda v: abs(v) < 2**62), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=4).map(np.array),
)
leaves = st.one_of(floats, np_floats, ints, np_ints, st.booleans(), st.none(), texts, arrays)
values = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.one_of(texts, ints), kids, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(values, st.integers(0, 3))
def test_the_serializer_writes_the_reference_bytes(obj, indent):
    assert cli._jdump(obj, indent) == _jdump(obj, indent)


@pytest.mark.parametrize("bad", [np.bool_(True), {1, 2}, 1j, b"x", object(), [1.0, {"k": (None, np.array([1j]))}]])
def test_the_serializer_refuses_what_the_reference_refuses(bad):
    with pytest.raises(CliError) as ref:
        _jdump(bad)
    with pytest.raises(CliError) as new:
        cli._jdump(bad)
    assert str(new.value) == str(ref.value)
