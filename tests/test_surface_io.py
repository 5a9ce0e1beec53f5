import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from millsurf import GridSpec, HeightField, read_surface, write_surface
from millsurf.errors import DomainError, SurfaceFormatError
from millsurf.roughness import MM_TO_UM
from millsurf.surface_io import (
    atomic_write_bytes,
    write_graymap,
    write_heights_csv,
)


def traced_peak(call, *args):
    """``call(*args)``'s result and the peak of the memory traced during it."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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

    @pytest.mark.parametrize("offset, value", [(16, math.nan), (24, math.inf)])
    def test_non_finite_grid_geometry(self, tmp_path, offset, value):
        # header doubles: spacing at byte 16, x_min at byte 24
        path = tmp_path / "s.srtf"
        write_surface(random_field(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, offset, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceFormatError, match="finite") as info:
            read_surface(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("fault", [
        dict(m=0), dict(n=0), dict(spacing=0.0), dict(spacing=-0.01), dict(spacing=math.inf),
        dict(x_min=-math.inf), dict(y_min=math.nan),
    ], ids=lambda fault: ",".join(f"{k}={v}" for k, v in fault.items()))
    def test_bad_grid_header(self, tmp_path, fault):
        # A header with no cells, a bad spacing or a non-finite origin, and a
        # payload of the length that header promises.
        head = dict(m=2, n=3, spacing=0.01, x_min=0.0, y_min=0.0) | fault
        path = tmp_path / "s.srtf"
        path.write_bytes(
            struct.pack("<4sIIIdddd", b"SRTF", 1, head["m"], head["n"], head["spacing"],
                        head["x_min"], head["y_min"], 0.5)
            + np.zeros((head["m"] + 1) * (head["n"] + 1), dtype="<f8").tobytes()
        )
        with pytest.raises(SurfaceFormatError) as info:
            read_surface(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sentinel(self, tmp_path, value):
        # the uncut sentinel height is the header double at byte 40
        path = tmp_path / "s.srtf"
        write_surface(random_field(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 40, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceFormatError, match="sentinel"):
            read_surface(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_height(self, tmp_path, value):
        path = tmp_path / "s.srtf"
        field = random_field()
        write_surface(field, path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 48 + 8 * (field.heights.size // 2), value)
        path.write_bytes(bytes(blob))
        with pytest.raises(SurfaceFormatError, match="not finite"):
            read_surface(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "s.srtf"
        path.write_bytes(b"SRTF")
        with pytest.raises(SurfaceFormatError, match="header"):
            read_surface(path)

    def test_reads_payload_in_place(self, tmp_path):
        # The payload goes straight into the height array: no copy of the
        # file's bytes beside it.
        field = random_field(m=499, n=399)
        path = tmp_path / "s.srtf"
        write_surface(field, path)
        read, peak = traced_peak(read_surface, path)
        assert np.array_equal(read.heights.view(np.int64), field.heights.view(np.int64))
        assert peak <= 1.25 * field.heights.nbytes, peak / field.heights.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_from_a_pipe(self, tmp_path):
        # A pipe has no size to check before reading, so it is read whole.
        field = random_field()
        write_surface(field, tmp_path / "s.srtf")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        blob = (tmp_path / "s.srtf").read_bytes()
        writer = threading.Thread(target=pipe.write_bytes, args=(blob,), daemon=True)
        writer.start()
        try:
            read = read_surface(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(read.heights.view(np.int64), field.heights.view(np.int64))
        assert read.heights.flags.writeable

    def test_no_temp_file_left(self, tmp_path):
        write_surface(random_field(), tmp_path / "s.srtf")
        assert [p.name for p in tmp_path.iterdir()] == ["s.srtf"]


class TestAtomicWrite:
    @pytest.mark.parametrize("fail_at", ["write", "rename", "mid-stream"])
    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        payload = "not bytes"  # the file handle's write raises TypeError
        if fail_at == "mid-stream":

            def chunks():
                yield b"new"
                raise OSError("source failed after one chunk")

            payload = chunks()
        if fail_at == "rename":
            payload = b"new"

            def refuse(src, dst):
                raise OSError("rename refused")

            monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises((TypeError, OSError)):
            atomic_write_bytes(path, payload)
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert path.read_bytes() == b"old"

    def test_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            atomic_write_bytes(tmp_path / "out.bin", b"x")
        finally:
            os.umask(old)
        assert (tmp_path / "out.bin").stat().st_mode & 0o777 == 0o640

    def test_concurrent_writers_of_one_path(self, tmp_path):
        path = tmp_path / "out.bin"
        payloads = [bytes([k]) * 200_000 for k in range(4)]
        errors = []

        def writer(payload):
            try:
                for _ in range(20):
                    atomic_write_bytes(path, payload)
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert path.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


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

    def test_matches_per_value_formatting(self, tmp_path):
        # Signed zeros, tiny values that round to -0.000000, huge and
        # non-finite values, each formatted as f"{v:.6f}" would.
        field = random_field(seed=3, m=40, n=25)
        special = np.array([-0.0, 0.0, -1e-12, 4e-10, 1e9 / MM_TO_UM, -1e300,
                            np.inf, -np.inf, np.nan, 0.1234565e-3, -2.5e-10])
        field.heights[: special.size * 7 : 7] = special
        path = tmp_path / "grid.csv"
        write_heights_csv(field, path)
        block = field.as_array() * MM_TO_UM
        lines = [",".join(f"{x:.6f}" for x in field.spec.x_coords())]
        lines += [",".join(f"{v:.6f}" for v in block[:, j]) for j in range(block.shape[1])]
        assert path.read_text() == "\n".join(lines) + "\n"

    def test_repeated_values_formatted_per_element(self, tmp_path, monkeypatch):
        # The writer formats each distinct bit pattern once per chunk, so
        # signed zeros, repeats and near-equal values must still come out as
        # each element's own text, in place, across chunk boundaries.
        monkeypatch.setattr("millsurf.surface_io._HEIGHTS_CHUNK_ROWS", 3)
        spec = GridSpec(spacing_mm=0.01, x_min_mm=-0.25, y_min_mm=1.5, m=5, n=6)
        near = 0.25 / MM_TO_UM
        values = np.array([0.0, -0.0, near, np.nextafter(near, 1.0), 0.0, 0.125, -0.0])
        assert values[2] * MM_TO_UM != values[3] * MM_TO_UM
        assert "%.6f" % (values[2] * MM_TO_UM) == "%.6f" % (values[3] * MM_TO_UM)
        heights = np.resize(values, spec.node_count)
        field = HeightField(spec, 0.5, heights)
        path = tmp_path / "grid.csv"
        write_heights_csv(field, path)
        block = field.as_array() * MM_TO_UM
        lines = [",".join("%.6f" % x for x in field.spec.x_coords().tolist())]
        lines += [",".join("%.6f" % v for v in block[:, j].tolist()) for j in range(spec.n + 1)]
        text = path.read_text()
        assert text == "\n".join(lines) + "\n"
        assert "-0.000000" in text and "0.000000," in text

    def test_chunks_match_one_shot_rendering(self, tmp_path, monkeypatch):
        monkeypatch.setattr("millsurf.surface_io._HEIGHTS_CHUNK_ROWS", 3)
        field = random_field(seed=5, m=4, n=9)  # 10 data rows: 3 + 3 + 3 + 1
        path = tmp_path / "grid.csv"
        write_heights_csv(field, path)
        block = field.as_array() * MM_TO_UM
        row_format = ",".join(["%.6f"] * block.shape[0])
        lines = [row_format % tuple(field.spec.x_coords().tolist())]
        lines.extend(row_format % tuple(row) for row in block.T.tolist())
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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

    def test_one_scratch_array(self, tmp_path):
        # Masked reductions and one float scratch array: no boolean-index
        # copies of the machined cells, and the pixels of a rendering that
        # makes them.
        field = random_field(m=499, n=399)
        assert 0 < field.machined_cell_count() < field.spec.node_count
        path = tmp_path / "g.pgm"
        _, peak = traced_peak(write_graymap, field, path)
        assert peak < 2 * field.heights.nbytes, peak / field.heights.nbytes
        block = field.as_array()
        machined = block < field.initial_height_mm
        z = block[machined]
        want = np.zeros(block.shape, dtype=np.uint16)
        want[machined] = np.rint((z - z.min()) * (65535.0 / (z.max() - z.min())))
        pixels = np.frombuffer(path.read_bytes().split(b"65535\n", 1)[1], dtype=">u2")
        assert np.array_equal(pixels, want.T.ravel())
