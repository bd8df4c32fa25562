import pytest
from hypothesis import given, strategies as st

from parmatch import ByteText, RangeError, mconcat, chunkable_ops

from support import EMPTY, bt, byte_texts


class TestBasics:
    def test_len(self):
        assert len(bt("")) == 0
        assert len(bt("abc")) == 3
        assert len(bt("ab") + bt("cde")) == 5
        assert not ByteText(b"") and ByteText(b"a")

    def test_append(self):
        assert bt("ab") + bt("cd") == bt("abcd")
        assert bt("x") + EMPTY == bt("x")
        assert (bt("a") + bt("b")) + bt("c") == bt("a") + (bt("b") + bt("c")) == bt("abc")

    def test_take(self):
        assert bt("abcd").take(2) == bt("ab")
        assert bt("abcd").take(0) == EMPTY
        assert bt("abcd").take(4) == bt("abcd")

    def test_drop(self):
        assert bt("abcd").drop(2) == bt("cd")
        assert bt("abcd").drop(0) == bt("abcd")
        assert bt("abcd").drop(4) == EMPTY

    def test_substring(self):
        assert bt("ababcabcab").substring(2, 5) == bt("abcab")
        x = bt("hello")
        assert x.substring(0, len(x)) == x
        assert x.substring(3, 0) == EMPTY

    def test_substring_is_take_after_drop(self):
        x = bt("abcdef")
        assert x.substring(2, 3) == x.drop(2).take(3)

    def test_chunks(self):
        assert bt("abcdefgh").chunks(3) == [bt("abc"), bt("def"), bt("gh")]
        assert bt("abc").chunks(5) == [bt("abc")]
        assert bt("ab").chunks(1) == [bt("a"), bt("b")]
        assert EMPTY.chunks(4) == [EMPTY]

    def test_value_semantics(self):
        raw = bytearray(b"abc")
        text = ByteText(bytes(raw))
        raw[0] = 0
        assert text == bt("abc")
        assert bytes(text) == b"abc"


class TestErrors:
    @pytest.mark.parametrize("count", [-1, 5])
    def test_take_out_of_range(self, count):
        with pytest.raises(RangeError):
            bt("abcd").take(count)

    @pytest.mark.parametrize("count", [-1, 5])
    def test_drop_out_of_range(self, count):
        with pytest.raises(RangeError):
            bt("abcd").drop(count)

    @pytest.mark.parametrize("offset,length", [(3, 2), (-1, 1), (0, 5), (2, -1)])
    def test_substring_out_of_range(self, offset, length):
        with pytest.raises(RangeError):
            bt("abcd").substring(offset, length)

    @pytest.mark.parametrize("size", [0, -3])
    def test_chunks_bad_size(self, size):
        with pytest.raises(ValueError):
            bt("abcd").chunks(size)


class TestConstruction:
    def test_from_text(self):
        assert ByteText.from_text("héllo") == ByteText("héllo".encode("utf-8"))

    def test_from_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01abc")
        assert ByteText.from_file(path) == ByteText(b"\x00\x01abc")

    def test_from_raw_buffer(self):
        assert ByteText(bytearray(b"xy")).data == b"xy"


class TestProperties:
    @given(byte_texts())
    def test_identity_laws(self, x):
        assert EMPTY + x == x
        assert x + EMPTY == x

    @given(byte_texts(), byte_texts(), byte_texts())
    def test_associativity(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(byte_texts(), st.data())
    def test_take_drop_reconstruction(self, x, data):
        i = data.draw(st.integers(0, len(x)))
        assert x.take(i) + x.drop(i) == x
        assert len(x.take(i)) == i
        assert len(x.drop(i)) == len(x) - i

    @given(byte_texts(), byte_texts(), st.data())
    def test_substring_stable_under_right_append(self, left, right, data):
        i = data.draw(st.integers(0, len(left)))
        j = data.draw(st.integers(0, len(left) - i))
        assert left.substring(i, j) == (left + right).substring(i, j)

    @given(byte_texts(), byte_texts(), st.data())
    def test_substring_shifts_under_left_append(self, left, right, data):
        i = data.draw(st.integers(0, len(right)))
        j = data.draw(st.integers(0, len(right) - i))
        assert right.substring(i, j) == (left + right).substring(len(left) + i, j)

    @given(byte_texts(), st.integers(1, 16))
    def test_chunk_reassembly(self, x, size):
        assert mconcat(chunkable_ops(), x.chunks(size)) == x

    @given(byte_texts(), st.integers(1, 16))
    def test_chunk_count_contract(self, x, size):
        parts = x.chunks(size)
        if len(x) <= size:
            assert len(parts) == 1
        elif size == 1:
            assert len(parts) == len(x)
        else:
            assert len(parts) < len(x)
        assert all(len(part) == size for part in parts[:-1])
