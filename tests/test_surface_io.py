import numpy as np
import pytest

from millsurf import GridSpec, HeightField, TrajectoryRecord, read_surface, write_surface
from millsurf.errors import DomainError, SurfaceFormatError
from millsurf.surface_io import write_graymap, write_heights_csv, write_trajectory_csv


def random_field(seed=0, m=6, n=9, sentinel=0.5):
    spec = GridSpec(spacing_mm=0.01, x_min_mm=-0.25, y_min_mm=1.5, m=m, n=n)
    rng = np.random.default_rng(seed)
    heights = rng.uniform(-0.1, sentinel, spec.node_count)
    heights[rng.random(spec.node_count) < 0.1] = sentinel  # some uncut cells
    return HeightField(spec, sentinel, heights)


class TestSurfaceRoundTrip:
    def test_bit_exact(self, tmp_path):
        field = random_field()
        path = tmp_path / "s.srtf"
        write_surface(field, path)
        back = read_surface(path)
        assert back.spec == field.spec
        assert back.initial_height_mm == field.initial_height_mm
        assert np.array_equal(back.heights, field.heights)
        assert back.heights.tobytes() == field.heights.tobytes()

    def test_file_size_accounting(self, tmp_path):
        spec = GridSpec(spacing_mm=1.0, x_min_mm=0.0, y_min_mm=0.0, m=1, n=1)
        field = HeightField(spec, 0.5, np.array([0.0, 0.1, 0.2, 0.3]))
        path = tmp_path / "tiny.srtf"
        write_surface(field, path)
        assert path.stat().st_size == 48 + 4 * 8

    def test_truncated_payload(self, tmp_path):
        field = random_field()
        path = tmp_path / "s.srtf"
        write_surface(field, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(SurfaceFormatError, match="payload"):
            read_surface(path)

    def test_oversized_payload(self, tmp_path):
        field = random_field()
        path = tmp_path / "s.srtf"
        write_surface(field, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(SurfaceFormatError, match="payload"):
            read_surface(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.srtf"
        write_surface(random_field(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceFormatError, match="magic"):
            read_surface(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "s.srtf"
        write_surface(random_field(), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceFormatError, match="version"):
            read_surface(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "s.srtf"
        path.write_bytes(b"SRTF")
        with pytest.raises(SurfaceFormatError, match="header"):
            read_surface(path)

    def test_no_temp_file_left(self, tmp_path):
        write_surface(random_field(), tmp_path / "s.srtf")
        assert [p.name for p in tmp_path.iterdir()] == ["s.srtf"]


class TestHeightsCsv:
    def test_shape_five_by_five(self, tmp_path):
        spec = GridSpec(spacing_mm=0.5, x_min_mm=0.0, y_min_mm=0.0, m=4, n=4)
        field = HeightField(spec, 1.0, np.linspace(0.0, 0.9, 25))
        path = tmp_path / "grid.csv"
        write_heights_csv(field, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 data rows
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_values_in_micrometres(self, tmp_path):
        spec = GridSpec(spacing_mm=1.0, x_min_mm=0.0, y_min_mm=0.0, m=1, n=1)
        field = HeightField(spec, 1.0, np.array([0.001, 0.001, 0.001, 0.001]))
        path = tmp_path / "grid.csv"
        write_heights_csv(field, path)
        data_row = path.read_text().strip().split("\n")[1]
        assert data_row == "1.000000,1.000000"


class TestGraymap:
    def test_flat_maps_to_mid_gray(self, tmp_path):
        spec = GridSpec(spacing_mm=1.0, x_min_mm=0.0, y_min_mm=0.0, m=2, n=2)
        field = HeightField(spec, 1.0, np.full(9, 0.25))
        path = tmp_path / "flat.pgm"
        write_graymap(field, path)
        blob = path.read_bytes()
        header, payload = blob.split(b"65535\n", 1)
        assert header == b"P5\n3 3\n"
        pixels = np.frombuffer(payload, dtype=">u2")
        assert np.all(pixels == 32768)

    def test_uncut_maps_to_zero_and_range_to_full_scale(self, tmp_path):
        spec = GridSpec(spacing_mm=1.0, x_min_mm=0.0, y_min_mm=0.0, m=1, n=1)
        heights = np.array([0.0, 0.2, 0.1, 1.0])  # last cell uncut
        field = HeightField(spec, 1.0, heights)
        path = tmp_path / "g.pgm"
        write_graymap(field, path)
        payload = path.read_bytes().split(b"65535\n", 1)[1]
        pixels = np.frombuffer(payload, dtype=">u2").reshape(2, 2).T  # back to (i, j)
        assert pixels[0, 0] == 0
        assert pixels[0, 1] == 65535
        assert pixels[1, 0] == 32768  # halfway
        assert pixels[1, 1] == 0  # uncut

    def test_all_uncut_rejected(self, tmp_path):
        field = HeightField(GridSpec(1.0, 0.0, 0.0, 1, 1), 1.0)
        with pytest.raises(DomainError):
            write_graymap(field, tmp_path / "g.pgm")


class TestTrajectoryCsv:
    def test_floats_round_trip(self, tmp_path):
        rec = TrajectoryRecord(2)
        rec.append(0.1, 1, 1.0 / 3.0, -2.5e-7, 0.1 + 0.2)
        rec.append(0.2, 2, -4.0, 5.0, -0.0625)
        path = tmp_path / "t.csv"
        write_trajectory_csv(rec, path)
        header, *rows = path.read_text().splitlines()
        assert header == "t_s,tooth,x_mm,y_mm,z_mm"
        first = rows[0].split(",")
        assert int(first[1]) == 1
        assert [float(v) for v in first[2:]] == [1.0 / 3.0, -2.5e-7, 0.1 + 0.2]
        assert rows[1] == "0.2,2,-4.0,5.0,-0.0625"
