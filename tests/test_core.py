import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualmsi.core import (
    BandSet,
    Label,
    Mode,
    Sample,
    SpectralCube,
    TABLE1_WAVELENGTHS,
    crop,
    load_dataset,
    load_sample,
    save_dataset,
    save_sample,
)
from dualmsi.errors import (
    DimensionMismatchError,
    MissingFrameError,
    ValidationError,
)
from dualmsi.jsonio import json_call, json_value, read_json, write_json
from dualmsi.pgm import read_pgm16, write_pgm16

from conftest import make_cube, random_raw_sample


class TestBandSet:
    def test_default_is_full_led_table(self):
        assert BandSet().wavelengths_nm == TABLE1_WAVELENGTHS
        assert len(BandSet()) == 14

    def test_thirteen_band_drops_uv(self):
        bs = BandSet.thirteen_band()
        assert len(bs) == 13
        assert 365 not in bs

    def test_rejects_duplicates_and_disorder(self):
        with pytest.raises(ValidationError):
            BandSet((530, 530))
        with pytest.raises(ValidationError):
            BandSet((660, 530))
        with pytest.raises(ValidationError):
            BandSet(())
        with pytest.raises(ValidationError):
            BandSet((0, 530))


class TestLabel:
    def test_exactly_one_variant(self):
        with pytest.raises(ValidationError):
            Label()
        with pytest.raises(ValidationError):
            Label(adulteration_pct=5.0, class_id=1)
        assert Label.adulteration(12.5).key == 12.5
        assert Label.color(7).key == 7.0

    def test_range_checks(self):
        with pytest.raises(ValidationError):
            Label.adulteration(101.0)
        with pytest.raises(ValidationError):
            Label.color(-1)

    def test_json_round_trip(self):
        for label in (Label.adulteration(40.0), Label.color(3)):
            assert json_value(Label, label.to_json(), "label") == label


def reader(first, /, count: int, mode: Mode = Mode.REFLECTANCE, label: Label | None = None):
    return first, count, mode, label


def plain_reader(count: int, scale: float = 1.0):
    return count, scale


class TestJsonCall:
    def test_reads_each_key_as_its_annotated_type(self):
        obj = {"count": 2, "mode": "transmittance", "label": {"class_id": 1}}
        assert json_call(reader, obj, "cfg", "a") == ("a", 2, Mode.TRANSMITTANCE, Label.color(1))
        assert json_call(plain_reader, {"count": 2, "scale": 3}, "cfg") == (2, 3.0)

    @pytest.mark.parametrize(
        "fn, obj, args, message",
        [(plain_reader, {"count": 1, "bogus": 2}, (), "unknown cfg keys ['bogus']"),
         (plain_reader, {"count": 1}, (1,), "unknown cfg keys ['count']"),
         (plain_reader, {"scale": 1.0}, (), "cfg is missing keys ['count']"),
         (reader, {}, ("a",), "cfg is missing keys ['count']"),
         (reader, {"count": "1"}, ("a",), "cfg.count must be int"),
         (reader, {"count": 1, "mode": "bogus"}, ("a",), "unknown cfg.mode 'bogus' (choose from: "
          "reflectance, transmittance)"),
         (reader, {"count": 1, "mode": 1}, ("a",), "unknown cfg.mode 1")],
        ids=["unknown-key", "filled-by-args", "missing-key", "missing-key-with-kwargs",
             "wrong-type", "unknown-enum-value", "non-string-enum-value"],
    )
    def test_bad_objects_are_validation_errors(self, fn, obj, args, message):
        with pytest.raises(ValidationError) as exc:
            json_call(fn, obj, "cfg", *args)
        assert message in str(exc.value)


def cube_of(values, dark, band_set=(530,)):
    return SpectralCube(values=values, dark=dark, mode=Mode.REFLECTANCE, band_set=BandSet(band_set))


class TestFrameAndCube:
    def test_frame_rejects_bad_shapes(self):
        frame = np.zeros((4, 4), dtype=np.uint16)
        with pytest.raises(ValidationError):
            cube_of(np.zeros((1, 4), dtype=np.uint16), frame)
        with pytest.raises(ValidationError):
            cube_of(np.zeros((1, 0, 4), dtype=np.uint16), np.zeros((0, 4), dtype=np.uint16))
        with pytest.raises(ValidationError):
            cube_of(frame[None], np.zeros(4, dtype=np.uint16))

    def test_frame_values_must_be_counts_or_finite_floats(self):
        zeros = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValidationError):
            cube_of(np.full((1, 2, 2), 65536), zeros)
        with pytest.raises(ValidationError):
            cube_of(np.full((1, 2, 2), -1), zeros)
        with pytest.raises(ValidationError):
            cube_of(zeros[None], np.full((2, 2), 70000))
        with pytest.raises(ValidationError):
            cube_of(np.full((1, 2, 2), np.nan), np.zeros((2, 2)))
        with pytest.raises(ValidationError):
            cube_of(np.zeros((1, 2, 2)), np.full((2, 2), np.inf))
        with pytest.raises(ValidationError):
            cube_of(np.zeros((1, 2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValidationError):
            cube_of(np.zeros((1, 2, 2)), zeros)
        cube = cube_of(np.full((1, 2, 2), 65535), zeros)
        assert cube.values.dtype == np.uint16 and cube.dark.dtype == np.uint16 and cube.is_raw
        assert not cube_of(np.ones((1, 2, 2), dtype=np.float32), np.zeros((2, 2))).is_raw

    def test_frames_are_immutable(self):
        values = np.zeros((2, 2, 2), dtype=np.uint16)
        cube = cube_of(values, values[0], band_set=(405, 530))
        for arr in (cube.values, cube.frame(530), cube.dark):
            with pytest.raises(ValueError):
                arr[0, 0] = 1
        values[1, 0, 0] = 9
        assert cube.frame(530)[0, 0] == 0

    def test_frame_is_band_set_row(self):
        values = np.arange(3 * 2 * 2, dtype=np.uint16).reshape(3, 2, 2)
        cube = cube_of(values, values[0], band_set=(405, 530, 660))
        for i, wl in enumerate((405, 530, 660)):
            assert np.array_equal(cube.frame(wl), values[i])
            assert np.shares_memory(cube.frame(wl), cube.values)

    def test_cube_requires_band_set_coverage(self):
        a = np.zeros((4, 4), dtype=np.uint16)
        with pytest.raises(ValidationError):
            cube_of(a[None], a, band_set=(405, 530))
        with pytest.raises(ValidationError):
            cube_of(np.stack([a, a, a]), a, band_set=(405, 530))

    def test_cube_requires_equal_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            cube_of(
                np.zeros((2, 5, 5), dtype=np.uint16),
                np.zeros((4, 4), dtype=np.uint16),
                band_set=(405, 530),
            )


class TestCrop:
    def test_index_mapping(self):
        values = np.zeros((10, 10), dtype=np.uint16)
        values[3, 3] = 777
        cube = make_cube({530: values})
        out = crop(cube, 0, 0, 8, 8)
        assert out.frame(530)[3, 3] == 777
        assert out.width == 8 and out.height == 8

    def test_offset_mapping(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 65536, (20, 30)).astype(np.uint16)
        cube = make_cube({530: values})
        out = crop(cube, 5, 2, 7, 9)
        assert np.array_equal(out.frame(530), values[2:11, 5:12])

    def test_full_frame_is_identity(self):
        rng = np.random.default_rng(4)
        sample = random_raw_sample(rng)
        out = crop(sample.cube, 0, 0, sample.cube.width, sample.cube.height)
        assert out == sample.cube

    def test_large_frame_all_bands_cropped(self):
        # 1280x1024 capture cropped to the 100x100 analysis window
        bands = {
            wl: np.full((1024, 1280), i, dtype=np.uint16)
            for i, wl in enumerate(TABLE1_WAVELENGTHS)
        }
        cube = make_cube(bands, dark=np.ones((1024, 1280), dtype=np.uint16))
        out = crop(cube, 590, 462, 100, 100)
        assert out.width == out.height == 100
        assert out.values.shape == (14, 100, 100)
        assert out.dark.shape == (100, 100)

    def test_out_of_bounds(self):
        cube = make_cube({530: np.zeros((10, 10), dtype=np.uint16)})
        with pytest.raises(ValidationError):
            crop(cube, 5, 5, 10, 10)
        with pytest.raises(ValidationError):
            crop(cube, -1, 0, 5, 5)

    def test_idempotent_on_full_output_rectangle(self):
        rng = np.random.default_rng(5)
        sample = random_raw_sample(rng)
        once = crop(sample.cube, 1, 2, 5, 4)
        twice = crop(once, 0, 0, 5, 4)
        assert once == twice


class TestSampleFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        sample = random_raw_sample(rng, "abc", n_bands=4)
        save_sample(sample, tmp_path / "abc")
        loaded = load_sample(tmp_path / "abc")
        assert loaded == sample
        assert loaded.cube.mode is sample.cube.mode

    def test_round_trip_extreme_values(self, tmp_path):
        values = np.array([[0, 65535], [65535, 0]], dtype=np.uint16)
        cube = make_cube({530: values}, dark=values)
        sample = Sample("ext", cube, Label.color(0))
        save_sample(sample, tmp_path / "ext")
        assert load_sample(tmp_path / "ext") == sample

    def test_save_twice_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        sample = random_raw_sample(rng, "rep")
        save_sample(sample, tmp_path / "a")
        save_sample(sample, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_schema(self, tmp_path):
        rng = np.random.default_rng(2)
        sample = random_raw_sample(rng, "schema", n_bands=2, mode=Mode.TRANSMITTANCE)
        save_sample(sample, tmp_path / "schema")
        manifest = json.loads((tmp_path / "schema" / "manifest.json").read_text())
        assert list(manifest) == [
            "id", "mode", "label", "width", "height", "bit_depth", "dark", "bands",
        ]
        assert manifest["mode"] == "transmittance"
        assert manifest["bit_depth"] == 16
        assert len(manifest["bands"]) == 2
        assert manifest["bands"][0]["file"] == "band_405.pgm"

    def test_missing_frame_error(self, tmp_path):
        rng = np.random.default_rng(3)
        sample = random_raw_sample(rng, "mf", n_bands=3)
        save_sample(sample, tmp_path / "mf")
        (tmp_path / "mf" / "band_530.pgm").unlink()
        with pytest.raises(MissingFrameError) as err:
            load_sample(tmp_path / "mf")
        assert err.value.wavelength_nm == 530

    def test_sample_without_manifest_error(self, tmp_path):
        rng = np.random.default_rng(3)
        save_sample(random_raw_sample(rng, "nm", n_bands=2), tmp_path / "nm")
        (tmp_path / "nm" / "manifest.json").unlink()
        with pytest.raises(ValidationError, match="no manifest.json in"):
            load_sample(tmp_path / "nm")

    def test_dimension_mismatch_error(self, tmp_path):
        rng = np.random.default_rng(4)
        sample = random_raw_sample(rng, "dm", n_bands=2, size=8)
        save_sample(sample, tmp_path / "dm")
        write_pgm16(tmp_path / "dm" / "band_405.pgm", np.zeros((4, 4), dtype=np.uint16))
        with pytest.raises(DimensionMismatchError):
            load_sample(tmp_path / "dm")

    def test_unknown_mode_error(self, tmp_path):
        rng = np.random.default_rng(5)
        sample = random_raw_sample(rng, "um", n_bands=2)
        save_sample(sample, tmp_path / "um")
        manifest_path = tmp_path / "um" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["mode"] = "fluorescence"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_sample(tmp_path / "um")

    def test_duplicate_wavelength_error(self, tmp_path):
        rng = np.random.default_rng(6)
        sample = random_raw_sample(rng, "dup", n_bands=2)
        save_sample(sample, tmp_path / "dup")
        manifest_path = tmp_path / "dup" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["bands"].append(dict(manifest["bands"][0]))
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError):
            load_sample(tmp_path / "dup")

    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = [random_raw_sample(rng, f"s{i}") for i in range(3)]
        save_dataset(samples, tmp_path / "ds")
        loaded = list(load_dataset(tmp_path / "ds"))
        assert [s.id for s in loaded] == ["s0", "s1", "s2"]
        assert all(a == b for a, b in zip(loaded, samples))

    def test_dataset_rejects_duplicate_ids(self, tmp_path):
        rng = np.random.default_rng(8)
        samples = [random_raw_sample(rng, "same"), random_raw_sample(rng, "same")]
        with pytest.raises(ValidationError):
            save_dataset(samples, tmp_path / "dup")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_bands=st.integers(1, 5), size=st.integers(1, 12))
    def test_round_trip_property(self, tmp_path_factory, seed, n_bands, size):
        rng = np.random.default_rng(seed)
        sample = random_raw_sample(rng, f"p{seed}", n_bands=n_bands, size=size)
        target = tmp_path_factory.mktemp("rt") / sample.id
        save_sample(sample, target)
        assert load_sample(target) == sample


class TestJsonFiles:
    @pytest.mark.parametrize(
        "text",
        ['{"a": NaN}', '[Infinity]', '{"a": [1, -Infinity]}', '{"a": 1e400}', '-1e400', '[1.5e308, 2e308]'],
    )
    def test_non_finite_numbers_raise_naming_the_file(self, tmp_path, text):
        path = tmp_path / "x.json"
        path.write_text(text)
        with pytest.raises(ValidationError, match="x.json"):
            read_json(path, "config")

    @pytest.mark.parametrize(
        "payload", [b"\xff\xfe{}", b"{not json", b"[" * 100_000, b'"\xe9"'],
        ids=["utf16-bom", "malformed", "nested-too-deeply", "latin-1"],
    )
    def test_undecodable_or_malformed_bytes_raise_naming_the_file(self, tmp_path, payload):
        path = tmp_path / "x.json"
        path.write_bytes(payload)
        with pytest.raises(ValidationError, match="x.json"):
            read_json(path, "config")

    def test_finite_numbers_are_read(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"tiny": 1e-400, "big": 1.5e308, "huge_int": 1%s, "s": "NaN"}' % ("0" * 400))
        assert read_json(path, "config") == {"tiny": 0.0, "big": 1.5e308, "huge_int": 10**400, "s": "NaN"}

    def test_write_then_read_round_trips_and_refuses_non_finite(self, tmp_path):
        obj = {"b": [1.0, -0.0, 5e-324], "a": {"z": None, "y": "\u00e9"}}
        write_json(obj, tmp_path / "sub" / "x.json")
        assert (tmp_path / "sub" / "x.json").read_text().startswith('{\n  "a"')
        assert read_json(tmp_path / "sub" / "x.json", "report") == obj
        with pytest.raises(ValueError):
            write_json({"a": float("nan")}, tmp_path / "nan.json")
        assert not (tmp_path / "nan.json").exists()

    def test_too_deeply_nested_raises_before_making_the_directory(self, tmp_path):
        obj = {}
        for _ in range(5_000):
            obj = {"left": obj}
        with pytest.raises(ValidationError, match="nested too deeply"):
            write_json(obj, tmp_path / "sub" / "x.json")
        assert not (tmp_path / "sub").exists()


class TestPgm:
    def test_byte_layout_big_endian(self, tmp_path):
        values = np.array([[0x0102, 0xFFEE]], dtype=np.uint16)
        path = tmp_path / "f.pgm"
        write_pgm16(path, values)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 1\n65535\n")
        assert data[-4:] == bytes([0x01, 0x02, 0xFF, 0xEE])

    def test_reader_accepts_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n65535\n" + bytes([0, 1, 0, 2]))
        assert np.array_equal(read_pgm16(path), np.array([[1, 2]], dtype=np.uint16))

    def test_reader_rejects_bad_files(self, tmp_path):
        bad_magic = tmp_path / "bad.pgm"
        bad_magic.write_bytes(b"P6\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValidationError):
            read_pgm16(bad_magic)
        truncated = tmp_path / "trunc.pgm"
        truncated.write_bytes(b"P5\n2 2\n65535\n\x00\x00")
        with pytest.raises(ValidationError):
            read_pgm16(truncated)
        eight_bit = tmp_path / "8bit.pgm"
        eight_bit.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValidationError):
            read_pgm16(eight_bit)

    def test_writer_rejects_out_of_range(self, tmp_path):
        with pytest.raises(ValidationError):
            write_pgm16(tmp_path / "x.pgm", np.array([[70000]], dtype=np.int64))
