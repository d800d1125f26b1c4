import re

import numpy as np
import pytest

from skiprec import fileio
from skiprec.errors import FormatError


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "a.w": rng.normal(size=(3, 4)),
            "a.b": rng.normal(size=4),
            "scalar": np.asarray(2.5),
            "deep": rng.normal(size=(2, 3, 2, 2)),
        }
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, tensors)
        back = fileio.load_checkpoint(path)
        assert list(back) == list(tensors)
        for name in tensors:
            assert back[name].dtype == np.float64
            assert np.array_equal(back[name], tensors[name])

    def test_sequential_write_matches_the_joined_bytes(self, tmp_path):
        # The file is written part by part; its bytes are the joined layout.
        import struct
        rng = np.random.default_rng(1)
        tensors = {"w": rng.normal(size=(3, 2)), "s": np.asarray(1.5), "ü": np.ones(4)}
        parts = [b"SKPF", struct.pack("<II", 1, len(tensors))]
        for name, arr in tensors.items():
            raw = name.encode("utf-8")
            parts += [struct.pack("<I", len(raw)), raw, struct.pack("<I", arr.ndim),
                      struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.astype("<f8").tobytes()]
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, tensors)
        assert path.read_bytes() == b"".join(parts)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError) as e:
            fileio.load_checkpoint(path)
        assert "byte 0" in str(e.value)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError) as e:
            fileio.load_checkpoint(path)
        assert "byte" in str(e.value)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            fileio.load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, {})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            fileio.load_checkpoint(path)

    def test_invalid_utf8_name_reports_offset(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, {"w": np.ones(2), "ab": np.ones(2)})
        blob = path.read_bytes()
        at = blob.index(b"ab")
        path.write_bytes(blob.replace(b"ab", b"\xff\xfe"))
        with pytest.raises(FormatError, match=f"tensor name at byte {at} is not valid UTF-8"):
            fileio.load_checkpoint(path)

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        fileio.save_checkpoint(path, {"aa": np.ones(2), "ab": np.zeros(2)})
        blob = path.read_bytes()
        at = blob.index(b"ab")
        path.write_bytes(blob.replace(b"ab", b"aa"))
        with pytest.raises(FormatError, match=f"duplicate tensor name 'aa' at byte {at}"):
            fileio.load_checkpoint(path)

    @pytest.mark.parametrize("write, first, second", [
        (fileio.save_checkpoint, {"w": np.ones((4, 4))}, {"w": np.zeros((4, 4))}),
        (fileio.write_features, [("u0", np.ones((4, 3)))], [("u0", np.zeros((4, 3)))]),
        (fileio.write_transcripts, [("u0", [1, 2, 3])], [("u0", [4, 5, 6])]),
    ], ids=["checkpoint", "features", "transcripts"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, first, second):
        path = tmp_path / "target"
        write(path, first)
        before = path.read_bytes()

        class DiskFull:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(fileio, "open", lambda *a, **kw: DiskFull(open(*a, **kw)),
                            raising=False)
        with pytest.raises(OSError):
            write(path, second)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["target"]


class TestFeatures:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        utts = [("u0", rng.normal(size=(10, 80))),
                ("longer-id", rng.normal(size=(3, 80)))]
        path = tmp_path / "features.bin"
        fileio.write_features(path, utts)
        back = fileio.read_features(path)
        assert [u for u, _ in back] == ["u0", "longer-id"]
        for (_, orig), (_, loaded) in zip(utts, back):
            # storage is 32-bit; compare after the same narrowing
            assert np.array_equal(loaded, orig.astype(np.float32).astype(np.float64))

    def test_single_utterance_shape(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u", np.zeros((10, 80)))])
        back = fileio.read_features(path)
        assert len(back) == 1
        assert back[0][1].shape == (10, 80)

    def test_empty_body(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [])
        assert fileio.read_features(path) == []

    def test_bit_identical_float32(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = rng.normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u", frames)])
        back = fileio.read_features(path)
        assert back[0][1].dtype == np.float64
        assert np.array_equal(back[0][1].astype(np.float32), frames)   # f32 -> f64 -> f32 is exact

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(b"SKPF-NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError) as e:
            fileio.read_features(path)
        assert "byte 0" in str(e.value)

    def test_truncation_reports_offset(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u", np.ones((4, 3)))])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as e:
            fileio.read_features(path)
        assert "byte" in str(e.value)


    def test_invalid_utf8_id_reports_offset(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u0", np.ones((4, 3))), ("u1", np.ones((4, 3)))])
        blob = path.read_bytes()
        at = blob.index(b"u1")
        path.write_bytes(blob.replace(b"u1", b"u\x81"))
        with pytest.raises(FormatError, match=f"utterance id at byte {at} is not valid UTF-8"):
            fileio.read_features(path)

    def test_repeated_utterance_id_reports_offset(self, tmp_path):
        # The writer rejects a repeated id, so the file is edited after writing.
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u0", np.ones((9, 3))), ("u1", np.ones((4, 3))),
                                     ("u2", np.ones((12, 3)))])
        blob = path.read_bytes()
        at = blob.index(b"u2")
        path.write_bytes(blob.replace(b"u2", b"u0"))
        with pytest.raises(FormatError, match=f"duplicate utterance id 'u0' at byte {at}"):
            fileio.read_features(path)

    @pytest.mark.parametrize("ids,message", [
        (["u0", "u1", "u0"], "utterance id 'u0' is repeated"),
        (["u0", "\ud800"], "utterance id '\\ud800' cannot be encoded as UTF-8"),
    ], ids=["repeated", "lone_surrogate"])
    def test_writer_rejects_ids_its_reader_rejects(self, tmp_path, ids, message):
        path = tmp_path / "features.bin"
        with pytest.raises(FormatError, match=re.escape(message)):
            fileio.write_features(path, [(i, np.ones((4, 3))) for i in ids])
        assert not path.exists()

    def test_writer_rejects_frames_that_are_not_2d(self, tmp_path):
        path = tmp_path / "features.bin"
        with pytest.raises(FormatError, match="utterance 'u1' frames must be 2-D"):
            fileio.write_features(path, [("u0", np.ones((4, 3))), ("u1", np.ones(12))])
        assert not path.exists()

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u0", np.ones((4, 3)))])
        blob = bytearray(path.read_bytes())
        blob[len(fileio.FEATURE_MAGIC)] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported feature version 99 at byte 9"):
            fileio.read_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u0", np.ones((4, 3)))])
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError, match=f"trailing bytes after last utterance at byte {size}"):
            fileio.read_features(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e300])
    def test_writer_rejects_values_not_finite_as_float32(self, tmp_path, bad):
        # 1e300 is finite in float64 but overflows the stored float32.
        path = tmp_path / "features.bin"
        frames = np.ones((4, 3))
        frames[2, 1] = bad
        with pytest.raises(FormatError, match="utterance 'u1' has non-finite"):
            fileio.write_features(path, [("u0", np.ones((4, 3))), ("u1", frames)])
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_reader_rejects_non_finite_values_with_their_offset(self, tmp_path, bad):
        path = tmp_path / "features.bin"
        fileio.write_features(path, [("u0", np.ones((4, 3))), ("u1", np.full((4, 3), 2.0))])
        blob = bytearray(path.read_bytes())
        at = blob.index(b"u1") + 2 + 8           # past the id, T_in and F
        blob[at + 4 * 5:at + 4 * 6] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"frames of 'u1' at byte {at} hold non-finite"):
            fileio.read_features(path)


class TestTranscripts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        fileio.write_transcripts(path, [("u0", [1, 2, 3]), ("u1", [7])])
        back = fileio.read_transcripts(path)
        assert back == {"u0": [1, 2, 3], "u1": [7]}

    def test_ids_round_trip_and_unreadable_ids_are_rejected(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        items = [("u 0", [1]), ("ü-1", [2, 3]), ("", [])]
        fileio.write_transcripts(path, items)
        assert fileio.read_transcripts(path) == dict(items)
        for bad in ("a\tb", "a\nb", "a\rb"):
            message = f"utterance id {bad!r} holds a tab, LF or CR"
            with pytest.raises(FormatError, match=re.escape(message)):
                fileio.write_transcripts(tmp_path / "bad.tsv", [("u0", [1]), (bad, [1, 2])])
            assert not (tmp_path / "bad.tsv").exists()

    @pytest.mark.parametrize("items,message", [
        ([("u0", [1]), ("u1", [2]), ("u0", [3])], "utterance id 'u0' is repeated"),
        ([("u0", [1]), ("\ud800", [1])], "utterance id '\\ud800' cannot be encoded as UTF-8"),
        ([("u0", [1]), ("u1", [1.5, True])], "utterance 'u1' has a token that is not an integer"),
        ([("u0", [True])], "utterance 'u0' has a token that is not an integer"),
        ([("u0", ["1"])], "utterance 'u0' has a token that is not an integer"),
    ], ids=["repeated", "lone_surrogate", "float_and_bool", "bool", "string"])
    def test_writer_rejects_what_its_reader_rejects_and_leaves_no_file(self, tmp_path, items,
                                                                      message):
        path = tmp_path / "transcripts.tsv"
        with pytest.raises(FormatError, match=re.escape(message)):
            fileio.write_transcripts(path, items)
        assert not path.exists()

    def test_numpy_integer_tokens_round_trip(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        fileio.write_transcripts(path, [("u0", np.array([4, 0, 19])), ("u1", [np.int32(-2)])])
        assert fileio.read_transcripts(path) == {"u0": [4, 0, 19], "u1": [-2]}

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_bytes(b"\nu0\t1 2\n\n\nu1\t3\n")
        assert fileio.read_transcripts(path) == {"u0": [1, 2], "u1": [3]}

    def test_empty_token_list(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        fileio.write_transcripts(path, [("u0", [])])
        assert fileio.read_transcripts(path) == {"u0": []}

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_text("u0\t1 2\nu0\t3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.read_transcripts(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_text("u0\t1 x 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.read_transcripts(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_text("u0 1 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            fileio.read_transcripts(path)

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_bytes(b"u0\t1 2\nu\xff1\t3\n")
        with pytest.raises(FormatError, match="line 2 is not valid UTF-8"):
            fileio.read_transcripts(path)

    def test_crlf_line_ends_read_as_text(self, tmp_path):
        path = tmp_path / "transcripts.tsv"
        path.write_bytes(b"u0\t1 2\r\nu1\t\r\nu2\t3\r")
        assert fileio.read_transcripts(path) == {"u0": [1, 2], "u1": [], "u2": [3]}
