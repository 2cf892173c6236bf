"""Container round trips, corruption handling, and manifest parsing."""

import hashlib
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momalign import seqio
from momalign.seqio import (
    BadMagicError,
    Manifest,
    ManifestEntry,
    ManifestError,
    OverlappingOffsetsError,
    TruncatedPayloadError,
    read_container,
    read_manifest,
    write_container,
    write_manifest,
)


class TestContainerRoundTrip:
    def test_empty_container(self, tmp_path):
        p = tmp_path / "empty.fsq"
        write_container({}, p)
        assert read_container(p) == {}

    def test_single_f32_tensor(self, tmp_path):
        p = tmp_path / "one.fsq"
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        write_container({"x": a}, p)
        back = read_container(p)
        assert back["x"].dtype == np.float32
        assert np.array_equal(back["x"], a)

    def test_f64_preserved(self, tmp_path):
        p = tmp_path / "two.fsq"
        a = np.random.default_rng(0).standard_normal((3, 4))
        write_container({"x": a}, p)
        back = read_container(p)
        assert back["x"].dtype == np.float64
        assert np.array_equal(back["x"], a)

    @pytest.mark.parametrize("kind", ["f4", "f8"])
    def test_byte_order_does_not_change_the_file(self, kind, tmp_path):
        # A big-endian float32 used to be stored as f64 and read back at
        # twice the size.
        files = []
        for order in "<>":
            a = np.arange(3, dtype=order + kind)
            files.append(tmp_path / f"{order == '<'}.fsq")
            write_container({"x": a}, files[-1])
            back = read_container(files[-1])["x"]
            assert back.dtype == np.dtype("<" + kind)
            assert np.array_equal(back, a)
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_write_deterministic(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((4, 4)).astype(np.float32)
        p1 = tmp_path / "a.fsq"
        p2 = tmp_path / "b.fsq"
        write_container({"w": a, "v": a * 2}, p1)
        write_container({"w": a, "v": a * 2}, p2)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

    def test_scalar_rank_zero(self, tmp_path):
        p = tmp_path / "s.fsq"
        write_container({"s": np.float64(3.5)}, p)
        back = read_container(p)
        assert back["s"].shape == ()
        assert back["s"] == 3.5

    def test_rejects_empty_name(self, tmp_path):
        with pytest.raises(ValueError):
            write_container({"": np.zeros(2)}, tmp_path / "bad.fsq")

    @settings(max_examples=40, deadline=None)
    @given(
        tensors=st.dictionaries(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=5), max_size=4),
                st.booleans(),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            max_size=5,
        )
    )
    def test_round_trip_random_shapes(self, tensors, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "c.fsq"
        arrays = {}
        for name, (shape, f32, seed) in tensors.items():
            rng = np.random.default_rng(seed)
            a = rng.standard_normal(shape)
            arrays[name] = a.astype(np.float32) if f32 else a
        write_container(arrays, path)
        back = read_container(path)
        assert set(back) == set(arrays)
        for name, a in arrays.items():
            assert back[name].dtype == a.dtype
            assert back[name].shape == a.shape
            assert np.array_equal(back[name], a)


class TestContainerCorruption:
    def _sample(self, tmp_path):
        p = tmp_path / "c.fsq"
        write_container({"x": np.arange(4.0), "y": np.ones((2, 2))}, p)
        return p

    def test_bad_magic(self, tmp_path):
        p = self._sample(tmp_path)
        raw = bytearray(p.read_bytes())
        raw[:4] = b"NOPE"
        p.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_container(p)

    def test_truncated_payload(self, tmp_path):
        p = self._sample(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(TruncatedPayloadError):
            read_container(p)

    def test_truncated_header(self, tmp_path):
        p = self._sample(tmp_path)
        raw = p.read_bytes()
        p.write_bytes(raw[:10])
        with pytest.raises(TruncatedPayloadError):
            read_container(p)

    def test_overlapping_offsets(self, tmp_path):
        p = self._sample(tmp_path)
        raw = bytearray(p.read_bytes())
        # Header: magic(4) count(4), entry x: nlen(4)+name(1)+rank(4)+dim(4)
        # +tag(4)+offset(8); point y's offset at x's payload.
        x_entry = 8
        x_off_pos = x_entry + 4 + 1 + 4 + 4 + 4
        (x_off,) = struct.unpack_from("<Q", raw, x_off_pos)
        y_entry = x_off_pos + 8
        y_off_pos = y_entry + 4 + 1 + 4 + 4 * 2 + 4
        struct.pack_into("<Q", raw, y_off_pos, x_off)
        p.write_bytes(bytes(raw))
        with pytest.raises(OverlappingOffsetsError):
            read_container(p)

    @staticmethod
    def _header(name, dims):
        """A one-tensor f32 header with the given raw name bytes and dims,
        its offset just past the header, and 8 payload bytes."""
        size = 8 + 4 + len(name) + 4 + 4 * len(dims) + 4 + 8
        raw = bytearray(seqio.MAGIC + struct.pack("<I", 1))
        raw += struct.pack("<I", len(name)) + name
        raw += struct.pack(f"<I{len(dims)}I", len(dims), *dims)
        raw += struct.pack("<IQ", 0, size)
        return bytes(raw) + bytes(8)

    def test_element_count_overflow(self, tmp_path):
        # 2^31 * 2^31 * 4 wraps a 64-bit element count to 0.
        p = tmp_path / "huge.fsq"
        p.write_bytes(self._header(b"x", (2**31, 2**31, 4)))
        with pytest.raises(TruncatedPayloadError, match="out of bounds"):
            read_container(p)

    def test_name_not_utf8(self, tmp_path):
        p = tmp_path / "name.fsq"
        p.write_bytes(self._header(b"\xff\xfe", (2,)))
        with pytest.raises(seqio.SeqIOError, match="UTF-8"):
            read_container(p)

    def test_duplicate_tensor_name(self, tmp_path):
        # Same-length names, so renaming "clop" keeps every offset valid and
        # the payloads apart: only the repeated name is wrong.
        p = tmp_path / "dup.fsq"
        write_container({"clip": np.zeros((2, 3)), "clop": np.ones((2, 3))}, p)
        raw = p.read_bytes()
        assert raw.count(b"clop") == 1
        p.write_bytes(raw.replace(b"clop", b"clip"))
        with pytest.raises(
            seqio.SeqIOError, match=re.escape(f"{p}: duplicate tensor name 'clip'")
        ):
            read_container(p)

    def test_crafted_header_reads_when_valid(self, tmp_path):
        p = tmp_path / "ok.fsq"
        p.write_bytes(self._header(b"x", (2,)))
        assert np.array_equal(read_container(p)["x"], np.zeros(2, dtype=np.float32))


#: A valid container to corrupt: ranks 0 to 2, both dtypes.
_FUZZ_TENSORS = {
    "x": np.arange(4.0),
    "yy": np.ones((2, 3), dtype=np.float32),
    "s": np.float64(0.5),
}


def _header_fields(tensors):
    """(position, width) of the count field and of every tensor's name
    length, rank, dims and offset, in the layout ``write_container`` uses."""
    fields = [(4, 4)]
    pos = 8
    for name, a in tensors.items():
        fields.append((pos, 4))
        pos += 4 + len(name.encode("utf-8"))
        fields.append((pos, 4))
        pos += 4
        for _ in np.shape(a):
            fields.append((pos, 4))
            pos += 4
        pos += 4  # dtype tag
        fields.append((pos, 8))
        pos += 8
    return fields


_FUZZ_FIELDS = _header_fields(_FUZZ_TENSORS)

_truncations = st.builds(lambda n: ("truncate", n), st.integers(min_value=0))
_bit_flips = st.builds(
    lambda bits: ("flip", bits), st.lists(st.integers(min_value=0), min_size=1, max_size=3)
)
_field_values = st.builds(
    lambda field, value: ("field", field, value),
    st.sampled_from(_FUZZ_FIELDS),
    st.one_of(st.sampled_from([0, 2**31, 2**32 - 1]), st.integers(0, 2**64 - 1)),
)


class TestContainerFuzz:
    def test_header_fields_match_layout(self, tmp_path):
        p = tmp_path / "c.fsq"
        write_container(_FUZZ_TENSORS, p)
        raw = p.read_bytes()
        values = [int.from_bytes(raw[pos : pos + w], "little") for pos, w in _FUZZ_FIELDS]
        # count, then per tensor: name length, rank, dims, payload offset.
        assert values[:4] == [3, 1, 1, 4]
        assert values[5:9] == [2, 2, 2, 3]
        assert values[10:12] == [1, 0]
        assert values[4] + 32 == values[9] and values[9] + 24 == values[12] == len(raw) - 8

    @settings(max_examples=400, deadline=None)
    @given(corruption=st.one_of(_truncations, _bit_flips, _field_values))
    def test_only_seqio_errors_escape(self, corruption, tmp_path_factory):
        """Truncations, bit flips and extreme header fields either read or
        fail with ``SeqIOError``; no ``struct``, numpy or memory error."""
        d = tmp_path_factory.getbasetemp() / "fuzz"
        d.mkdir(exist_ok=True)
        p = d / "c.fsq"
        write_container(_FUZZ_TENSORS, p)
        raw = bytearray(p.read_bytes())
        if corruption[0] == "truncate":
            raw = raw[: corruption[1] % len(raw)]
        elif corruption[0] == "flip":
            for bit in corruption[1]:
                raw[bit // 8 % len(raw)] ^= 1 << bit % 8
        else:
            (pos, width), value = corruption[1], corruption[2]
            raw[pos : pos + width] = (value % 2 ** (8 * width)).to_bytes(width, "little")
        p.write_bytes(bytes(raw))
        try:
            read_container(p)
        except seqio.SeqIOError:
            pass


_encodable = st.characters(exclude_categories=("Cs",))
#: Lines of a text file: well-formed manifest and config lines (which may
#: repeat an id or key), comments and blanks, and fields joined by a tab or
#: '='; a field's characters include multi-byte ones, which a cut can split.
_text_lines = st.sampled_from(
    ["a\tcat\ta.fsq", " b \t dog\tb.fsq", "ways = 3", "seed=1", "# note", " ", ""]
) | st.builds(
    lambda sep, fields: sep.join(fields),
    st.sampled_from(["\t", "=", " = "]),
    st.lists(st.text(st.sampled_from("ab1 \t=#\u00e9\u20ac") | _encodable, max_size=6), max_size=4),
)


@st.composite
def text_files(draw):
    """Bytes of a line-based text file: random bytes, or lines ended by a mix
    of LF, CRLF and CR after an optional byte-order mark, cut at any byte."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    text = "\ufeff" if draw(st.booleans()) else ""
    for line in draw(st.lists(_text_lines, max_size=8)):
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = text.encode("utf-8")
    return data[: draw(st.integers(0, len(data)))]


def assert_parses_or_names_line(parse, error, data, path):
    """``parse(path)`` on ``data`` returns, or raises exactly ``error`` with a
    message that starts ``<path>:<line>: `` for a line the file has."""
    path.write_bytes(data)
    try:
        parse(path)
    except error as exc:
        assert type(exc) is error
        match = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match.group(1)) <= data.count(b"\n") + data.count(b"\r") + 1


class TestManifest:
    @settings(max_examples=300, deadline=None)
    @given(data=text_files())
    def test_fuzzed_text_names_file_and_line(self, data, tmp_path_factory):
        d = tmp_path_factory.getbasetemp() / "fuzz"
        d.mkdir(exist_ok=True)
        assert_parses_or_names_line(read_manifest, ManifestError, data, d / "m.tsv")

    def test_two_line_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        for newline in ("\n", "\r\n", "\r"):
            p.write_bytes(newline.join(["a\tcat\tclips/a.fsq", "b\tdog\tclips/b.fsq", ""]).encode())
            m = read_manifest(p)
            assert len(m.entries) == 2
            assert m.entries[0] == ManifestEntry("a", "cat", "clips/a.fsq")
            assert sorted({e.label for e in m.entries}) == ["cat", "dog"]
        # A leading byte-order mark is not part of the first id.
        p.write_bytes("\ufeffa\tcat\tclips/a.fsq\n".encode())
        assert read_manifest(p).entries == (ManifestEntry("a", "cat", "clips/a.fsq"),)

    def test_fields_stripped(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a \t cat\tclips/a.fsq \n")
        assert read_manifest(p).entries == (ManifestEntry("a", "cat", "clips/a.fsq"),)
        # A field that is blank once stripped still makes the line malformed.
        p.write_text("a\tcat\tx.fsq\nb\t \ty.fsq\n")
        with pytest.raises(ManifestError, match=":2: malformed"):
            read_manifest(p)

    def test_comments_and_blanks_ignored(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("# header\n\na\tcat\tx.fsq\n   \n# tail\n")
        assert len(read_manifest(p).entries) == 1

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a\tcat\tx.fsq\na\tdog\ty.fsq\n")
        with pytest.raises(ManifestError, match="'a'"):
            read_manifest(p)

    def test_malformed_line_has_line_number(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a\tcat\tx.fsq\nbroken line\n")
        with pytest.raises(ManifestError, match=":2"):
            read_manifest(p)

    def test_non_utf8_names_file_and_line(self, tmp_path):
        p = tmp_path / "m.tsv"
        for newline in (b"\n", b"\r"):
            p.write_bytes(newline.join([b"a\tcat\tx.fsq", b"b\t\xffdog\ty.fsq", b""]))
            with pytest.raises(ManifestError, match=f"^{re.escape(str(p))}:2: .*UTF-8"):
                read_manifest(p)

    def test_round_trip(self, tmp_path):
        m = Manifest(
            (ManifestEntry("a", "cat", "x.fsq"), ManifestEntry("b", "cat", "y.fsq")),
            root=str(tmp_path),
        )
        write_manifest(m, tmp_path / "m.tsv")
        back = read_manifest(tmp_path / "m.tsv")
        assert back.entries == m.entries

    def test_resolve_relative_to_root(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("a\tcat\tclips/a.fsq\n")
        m = read_manifest(p)
        assert m.resolve(m.entries[0]) == tmp_path / "clips" / "a.fsq"

    def test_by_label_groups(self):
        m = Manifest(
            (
                ManifestEntry("a", "cat", "x"),
                ManifestEntry("b", "dog", "y"),
                ManifestEntry("c", "cat", "z"),
            )
        )
        grouped = m.by_label()
        assert [e.clip_id for e in grouped["cat"]] == ["a", "c"]
        assert [e.clip_id for e in grouped["dog"]] == ["b"]
