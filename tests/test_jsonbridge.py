import base64
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cborkit import cbor
from cborkit.cbor import Bytes, Map, Nint, Simple, Tag, Text, Uint, Undefined
from cborkit.jsonbridge import (
    Base64Error,
    JsonBridgeError,
    JsonNumber,
    JsonObject,
    JsonSyntaxError,
    MissingField,
    SizeMismatch,
    blob_embed_cbor,
    blob_tag_base64,
    blob_to_bstr,
    cbor_to_json,
    json_to_cbor,
    minify,
    parse_json,
)
from cborkit.taxonomy import classify

FLOAT_MODES = (cbor.FLOAT_PRESERVE, cbor.FLOAT_FORCE_DOUBLE, cbor.FLOAT_SMALLEST)


def test_parse_basics():
    value = parse_json('{"a":1}')
    assert isinstance(value, JsonObject)
    assert value.entries == [("a", JsonNumber("1"))]
    assert parse_json("[1.5,true,null]") == [JsonNumber("1.5"), True, None]
    fractional = parse_json('{"x":5.5}')
    assert fractional.entries[0][1] == JsonNumber("5.5")
    assert not fractional.entries[0][1].is_integer


def test_parse_duplicate_keys_preserved():
    value = parse_json('{"a":1,"a":2}')
    assert [k for k, _ in value.entries] == ["a", "a"]


def test_duplicate_keys_are_flagged_in_document_order():
    value = parse_json('{"a":1,"b":{"c":1e400,"c":2},"a":%d,"a":3}' % 2**64)
    report = []
    assert json_to_cbor(value, report=report) == json_to_cbor(value)
    assert report == [
        "duplicate object key 'c' kept",
        "duplicate object key 'a' kept",
        "integer 18446744073709551616 outside 64-bit range became a float",
        "duplicate object key 'a' kept",
    ]


@pytest.mark.parametrize(
    "text",
    ['{"a":NaN}', '{"a":Infinity}', "{'a':1}", "[1,]", '{"a":1} trailing', "", "01"],
)
def test_parse_rejects_nonstandard(text):
    with pytest.raises(JsonSyntaxError):
        parse_json(text)


def test_parse_error_reports_byte_offset():
    try:
        parse_json(b'{"\xc3\xa9": !}')
        assert False
    except JsonSyntaxError as exc:
        assert exc.offset == 7  # the '!' counted in bytes, not chars
    # Text input reports the offset its UTF-8 bytes would.
    cases = [
        ('["é", x]', 7),  # the 'x'
        ('["é", x]'.encode(), 7),
        ('["☃"] 1', 7),  # trailing data after the array
        ('["☃"] 1'.encode(), 7),
        ('["\ud800", x]', 8),  # a lone surrogate counts as three bytes
    ]
    # A non-standard constant is reported where it starts, past any string
    # that spells one.
    for text, offset in [('{"a":NaN}', 5), ("[1, Infinity]", 4), ("[1,2,-Infinity]", 5),
                         ('["é NaN", NaN]', 11)]:
        cases += [(text, offset), (text.encode(), offset)]
    for source, offset in cases:
        with pytest.raises(JsonSyntaxError) as caught:
            parse_json(source)
        assert caught.value.offset == offset, source


def test_parse_rejects_nesting_too_deep_to_parse():
    with pytest.raises(JsonSyntaxError):
        parse_json("[" * 100_000 + "]" * 100_000)


def test_minify_rejects_nesting_too_deep():
    value = None
    for _ in range(100_000):
        value = [value]
    with pytest.raises(JsonBridgeError):
        minify(value)


def _json_depth(value):
    # Level of the deepest node once converted; a key sits at its value's level.
    if isinstance(value, list):
        children = value
    elif isinstance(value, JsonObject):
        children = [child for _, child in value.entries]
    else:
        return 0
    return 1 + max(map(_json_depth, children)) if children else 0


@pytest.mark.parametrize("inner", ["1", "[]", "{}", "[1]", '{"a":1}', '{"a":{}}'])
@pytest.mark.parametrize("wrap", ["[%s]", '{"k":%s}', '[0,%s,{}]'])
def test_json_to_cbor_depth_bound_is_the_encoders(inner, wrap):
    for levels in range(126, 130):
        text = inner
        for _ in range(levels):
            text = wrap % text
        value = parse_json(text)
        if _json_depth(value) > cbor.DEFAULT_MAX_DEPTH:
            with pytest.raises(cbor.DepthExceeded):
                json_to_cbor(value)
        else:
            cbor.encode(json_to_cbor(value))


def test_minify():
    assert minify(parse_json(' { "a" : 1 } ')) == '{"a":1}'
    assert len(minify(parse_json('{"a":1}'))) == 7
    assert minify(JsonNumber("5.5")) == "5.5"
    assert minify(parse_json("{}")) == "{}"
    # number lexemes survive untouched
    assert minify(parse_json("[1.50,1e3,-0.0]")) == "[1.50,1e3,-0.0]"
    # strings keep raw UTF-8, escapes only where JSON requires them
    assert minify(parse_json('"café\\n"')) == '"café\\n"'


def test_json_to_cbor_goldens():
    assert json_to_cbor(parse_json("12")) == Uint(12)
    assert cbor.encode(json_to_cbor(parse_json("12"))).hex() == "0c"
    assert cbor.item_size(json_to_cbor(parse_json('"Hello!"'))) == 7
    assert cbor.encode(json_to_cbor(parse_json('{"a":1}'))).hex() == "a1616101"
    assert json_to_cbor(parse_json("-500")) == Nint(499)
    item = json_to_cbor(parse_json("5.5"))
    assert cbor.encode(item).hex() == "f94580"  # smallest width recorded
    assert cbor.encode(json_to_cbor(parse_json("5.5"), cbor.FLOAT_FORCE_DOUBLE)).hex() == (
        "fb4016000000000000"
    )


def test_json_to_cbor_integer_overflow_flagged():
    report = []
    item = json_to_cbor(parse_json(str(2**64)), report=report)
    assert isinstance(item, cbor.Float)
    assert report
    report = []
    assert json_to_cbor(parse_json(str(2**64 - 1)), report=report) == Uint(2**64 - 1)
    assert json_to_cbor(parse_json(str(-(2**64))), report=report) == Nint(2**64 - 1)
    assert not report


def test_cbor_to_json():
    assert cbor_to_json(Bytes(bytes.fromhex("c6336423"))) == "xjNkIw"
    # independent oracle: urlsafe base64 without padding
    payload = bytes(range(7))
    assert cbor_to_json(Bytes(payload)) == base64.urlsafe_b64encode(payload).rstrip(b"=").decode()
    assert cbor_to_json(Uint(12)) == JsonNumber("12")
    report = []
    assert cbor_to_json(Tag(24, Bytes(b"hi")), report) == "aGk"
    assert any("tag 24" in flag for flag in report)
    assert cbor_to_json(Simple(99)) == JsonNumber("99")
    report = []
    assert cbor_to_json(Undefined(), report) is None
    assert report


def test_bridge_identity_without_loss():
    text = '{"a":1,"b":[true,null,"x",-2],"c":{"d":0.5}}'
    value = parse_json(text)
    report = []
    back = cbor_to_json(json_to_cbor(value, report=report), report)
    assert not report
    assert minify(back) == text


def _blob(content="aGk=", size=2, extra=()):
    entries = [
        (Text("sha"), Text("89e6c98d92887913cadf06b2adb97f26cde4849b")),
        (Text("content"), Text(content)),
        (Text("encoding"), Text("base64")),
        (Text("size"), Uint(size)),
    ]
    entries.extend(extra)
    return Map(entries)


def test_blob_tag_base64():
    blob = _blob()
    tagged = blob_tag_base64(blob)
    keys = [k.data for k, _ in tagged.entries]
    assert keys == ["sha", "content", "size"]
    assert tagged.entries[1][1] == Tag(34, Text("aGk="))
    # spot the exact byte delta: -16 for the entry, +2 for the tag head
    assert cbor.item_size(blob) - cbor.item_size(tagged) == 14
    with pytest.raises(MissingField):
        blob_tag_base64(Map([(Text("content"), Text("aGk="))]))
    with pytest.raises(MissingField):
        blob_tag_base64(Map([(Text("encoding"), Text("base64"))]))


def test_blob_to_bstr():
    tagged = blob_tag_base64(_blob())
    decoded = blob_to_bstr(tagged)
    keys = [k.data for k, _ in decoded.entries]
    assert keys == ["sha", "content"]
    assert decoded.entries[1][1] == Bytes(b"hi")
    # plain (untagged) base64 text content is accepted too
    assert blob_to_bstr(_blob()).entries[1][1] == Bytes(b"hi")
    # empty content
    empty = blob_to_bstr(Map([(Text("content"), Text("")), (Text("size"), Uint(0))]))
    assert empty.entries[0][1] == Bytes(b"")
    with pytest.raises(SizeMismatch):
        blob_to_bstr(_blob(size=3))
    with pytest.raises(Base64Error):
        blob_to_bstr(Map([(Text("content"), Text("not base64!"))]))


def test_blob_to_bstr_accepts_mime_newlines():
    payload = bytes(range(100))
    wrapped = base64.encodebytes(payload).decode()  # 76-column lines
    assert "\n" in wrapped
    blob = Map([(Text("content"), Text(wrapped)), (Text("size"), Uint(100))])
    assert blob_to_bstr(blob).entries[0][1] == Bytes(payload)


def test_blob_embed_cbor():
    blob = Map([(Text("content"), Bytes(b'{"a":1}'))])
    embedded = blob_embed_cbor(blob)
    assert embedded.entries[0][1] == Tag(24, Bytes(bytes.fromhex("a1616101")))
    assert blob_embed_cbor(Map([(Text("content"), Bytes(b"12"))])).entries[0][1] == Tag(
        24, Bytes(bytes.fromhex("0c"))
    )
    report = []
    unchanged = blob_embed_cbor(Map([(Text("content"), Bytes(b"<html>"))]), report=report)
    assert unchanged.entries[0][1] == Bytes(b"<html>")
    assert report


def test_blob_pipeline_monotonic_on_random_payloads():
    rng = random.Random(7)
    for size in (1024, 4096, 20000):
        payload = rng.randbytes(size)
        content = base64.encodebytes(payload).decode()
        blob = _blob(content=content, size=size)
        simple_size = cbor.item_size(blob)
        tagged = blob_tag_base64(blob)
        bstr = blob_to_bstr(tagged)
        assert simple_size > cbor.item_size(tagged) > cbor.item_size(bstr)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64 - 1).map(lambda n: JsonNumber(str(n)))
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(st.text(max_size=5), children), max_size=4).map(JsonObject),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_minify_parse_round_trip(value):
    text = minify(value)
    assert minify(parse_json(text)) == text


@settings(max_examples=200, deadline=None)
@given(_json_values)
def test_bridge_round_trip_property(value):
    report = []
    item = json_to_cbor(value, report=report)
    back = cbor_to_json(item, report)
    if not report:
        assert minify(back) == minify(value)


# Numbers whose CBOR width depends on the float mode: integers beyond 64
# bits (floats, exact at 16 or 32 bits for some powers of two), fractions
# and overflow to infinity.
_wide_numbers = st.one_of(
    st.tuples(st.integers(64, 1100), st.sampled_from((1, -1))).map(lambda t: str(t[1] * 2 ** t[0])),
    st.integers(2**64, 2**90).map(str),
    st.integers(-(2**90), -(2**64) - 1).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e400", "-0", "-0.0", "65504.0", "1.5", "0.1", "1e39"]),
).map(JsonNumber)
_float_documents = st.recursive(
    st.none() | st.booleans() | _wide_numbers | _json_values,
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.tuples(st.text(max_size=4), children), max_size=4).map(JsonObject),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(_float_documents, st.sampled_from(FLOAT_MODES))
def test_json_to_cbor_encodes_alike_under_its_float_mode(value, mode):
    # json_to_cbor decides every float's width, so the float mode at encode
    # time changes nothing and classify's size is the encoded size.
    item = json_to_cbor(value, mode)
    data = cbor.encode(item)
    assert cbor.encode(item, cbor.EncodeOptions(float_mode=mode)) == data
    assert classify(item, 1).encoded_size == len(data)


def test_cbor_smaller_for_short_string_integer_json():
    # no fractional numbers, strings under 24 bytes: CBOR never loses
    rng = random.Random(3)
    for _ in range(50):
        entries = []
        for _ in range(rng.randrange(0, 8)):
            key = "".join(rng.choice("abcdefgh") for _ in range(rng.randrange(1, 10)))
            if rng.random() < 0.5:
                child = JsonNumber(str(rng.randrange(-1000, 1000)))
            else:
                child = "".join(rng.choice("xyz01") for _ in range(rng.randrange(0, 23)))
            entries.append((key, child))
        value = JsonObject(entries)
        minified = len(minify(value).encode())
        encoded = cbor.item_size(json_to_cbor(value))
        assert encoded <= minified


# Every character JSON must or may escape, and lone surrogates, which
# ``json.dumps`` passes through unescaped when ``ensure_ascii`` is off.
_escape_prone_text = st.text(
    st.one_of(
        st.characters(),
        st.sampled_from('\x00\x08\t\n\x1f\x7f"\\/\u2028\u2029\ud800\udfff'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, categories=["Cs"]),
    )
)


@settings(max_examples=300, deadline=None)
@given(_escape_prone_text)
def test_minify_escapes_strings_as_json_dumps(s):
    expected = json.dumps(s, ensure_ascii=False)
    assert minify(s) == expected
    assert minify(JsonObject([(s, [s])])) == "{%s:[%s]}" % (expected, expected)
