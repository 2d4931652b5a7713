import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpsketch.errors import ParameterError, SketchFileError
from dpsketch.sketchfile import MAGIC, METHODS, SketchFile, read_sketch, write_sketch


def sample_file(method="jl", r=6, d=3, weights=None, meta=None):
    rng = np.random.default_rng(1)
    return SketchFile(
        method=method,
        matrix=rng.standard_normal((r, d + 1)),
        epsilon=1.0,
        delta=0.05,
        B=2.0,
        meta=meta or {"branch": "no-augment"},
        weights=weights,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("method", [method for method, spec in METHODS.items() if not spec.weighted])
    def test_bit_exact(self, tmp_path, method):
        sf = sample_file(method=method, meta={"sigma": 1.25})
        path = tmp_path / "s.dps"
        write_sketch(path, sf)
        back = read_sketch(path)
        assert back.method == method
        assert (back.matrix == sf.matrix).all()
        assert back.weights is None
        assert back.epsilon == 1.0 and back.delta == 0.05 and back.B == 2.0
        assert back.meta == {"sigma": 1.25}

    def test_multilevel_weights(self, tmp_path):
        rng = np.random.default_rng(2)
        sf = sample_file(
            method="l1-multilevel", r=9,
            weights=rng.uniform(0.5, 8.0, 9), meta={"h_m": 2},
        )
        path = tmp_path / "w.dps"
        write_sketch(path, sf)
        back = read_sketch(path)
        assert (back.weights == sf.weights).all()
        assert (back.matrix == sf.matrix).all()

    @pytest.mark.parametrize("method", ["countsketch-l2", "l1-multilevel"])
    def test_payload_is_copied_once(self, tmp_path, method):
        # the file's bytes plus one copy of its payload (2.1x the file measured);
        # slicing the payload out before copying it peaked at 3.1x, 3.8x weighted
        r = 20_000
        weights = np.random.default_rng(3).uniform(0.5, 8.0, r) if METHODS[method].weighted else None
        sf = sample_file(method=method, r=r, d=10, weights=weights)
        path = tmp_path / "big.dps"
        write_sketch(path, sf)
        tracemalloc.start()
        back = read_sketch(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2.5 * path.stat().st_size
        assert (back.matrix == sf.matrix).all() and back.matrix.flags.writeable
        assert back.weights is None if weights is None else (back.weights == sf.weights).all()

    def test_write_read_write_stable(self, tmp_path):
        sf = sample_file()
        p1, p2 = tmp_path / "a.dps", tmp_path / "b.dps"
        write_sketch(p1, sf)
        write_sketch(p2, read_sketch(p1))
        assert p1.read_bytes() == p2.read_bytes()


NESTED_SECRETS = [
    {"extra": {"seed": 123456789}},
    {"extra": [{"plan": [1, 2]}]},
    {"branch": "no-augment", "audit": [[{"trace": {"sign_of": [1, -1]}}]]},
]


class TestValidation:
    def test_multilevel_requires_weights(self):
        with pytest.raises(ParameterError):
            sample_file(method="l1-multilevel")

    def test_other_methods_refuse_weights(self):
        with pytest.raises(ParameterError):
            sample_file(method="jl", weights=np.ones(6))

    def test_unknown_method(self):
        with pytest.raises(ParameterError):
            sample_file(method="fourier")

    def test_meta_must_not_carry_seed(self):
        for meta in ({"seed": 42}, {"bucket_of": [1, 2]}, *NESTED_SECRETS):
            with pytest.raises(ParameterError, match="refusing to serialize"):
                sample_file(meta=meta)


class TestCorruptFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dps"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(SketchFileError, match="magic"):
            read_sketch(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.dps"
        path.write_bytes(MAGIC + struct.pack("<H", 9) + struct.pack("<I", 2) + b"{}")
        with pytest.raises(SketchFileError, match="version"):
            read_sketch(path)

    def test_truncated_payload(self, tmp_path):
        sf = sample_file()
        path = tmp_path / "t.dps"
        write_sketch(path, sf)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(SketchFileError, match="payload"):
            read_sketch(path)

    def test_corrupt_header_json(self, tmp_path):
        path = tmp_path / "j.dps"
        payload = b"not json"
        path.write_bytes(MAGIC + struct.pack("<H", 1) + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(SketchFileError, match="header"):
            read_sketch(path)

    def test_header_missing_field(self, tmp_path):
        path = tmp_path / "m.dps"
        payload = json.dumps({"method": "jl"}).encode()
        path.write_bytes(MAGIC + struct.pack("<H", 1) + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(SketchFileError, match="missing"):
            read_sketch(path)


def header_file(path, header, body=b""):
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<H", 1) + struct.pack("<I", len(blob)) + blob + body)


VALID_HEADER = {
    "method": "jl", "r": 1, "d": 1, "epsilon": 1.0, "delta": 0.05, "B": 2.0,
    "meta": {}, "has_weights": False,
}


class TestHeaderValidation:
    def test_valid_header_reads(self, tmp_path):
        path = tmp_path / "ok.dps"
        header_file(path, VALID_HEADER, b"\x00" * 16)
        assert read_sketch(path).matrix.shape == (1, 2)

    def test_header_must_be_object(self, tmp_path):
        path = tmp_path / "list.dps"
        header_file(path, [1, 2, 3])
        with pytest.raises(SketchFileError, match="header"):
            read_sketch(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("r", "abc"), ("r", 0), ("r", 2.0), ("r", True), ("d", -1), ("d", None),
            ("epsilon", "x"), ("epsilon", -1), ("epsilon", 0), ("epsilon", float("inf")),
            ("epsilon", float("nan")), ("epsilon", True), ("delta", 2.0), ("delta", 0),
            ("delta", 1), ("B", 0), ("B", "1"), ("B", [1.0]), ("meta", [1]), ("meta", "x"),
            ("has_weights", "yes"), ("method", ["jl"]),
        ],
    )
    def test_bad_field(self, tmp_path, key, value):
        path = tmp_path / "bad.dps"
        header_file(path, {**VALID_HEADER, key: value}, b"\x00" * 16)
        with pytest.raises(SketchFileError):
            read_sketch(path)

    @pytest.mark.parametrize("meta", NESTED_SECRETS)
    def test_meta_secret_at_any_depth_refused(self, tmp_path, meta):
        path = tmp_path / "nested.dps"
        header_file(path, {**VALID_HEADER, "meta": meta}, b"\x00" * 16)
        with pytest.raises(SketchFileError, match="refusing to serialize"):
            read_sketch(path)

    def test_header_needs_a_feature_column(self, tmp_path):
        path = tmp_path / "d0.dps"
        header_file(path, {**VALID_HEADER, "d": 0}, b"\x00" * 8)
        with pytest.raises(SketchFileError, match="header field 'd' must be an integer >= 1"):
            read_sketch(path)

    def test_constructor_needs_a_feature_column(self):
        with pytest.raises(ParameterError, match="feature column"):
            SketchFile(method="jl", matrix=np.ones((4, 1)), epsilon=1.0, delta=0.05, B=1.0)

    def test_fewer_rows_than_coefficients_refused(self, tmp_path):
        # no solver fits 3 coefficients from 2 rows, so such a release is never written or read
        with pytest.raises(ParameterError, match="need rows >= d"):
            SketchFile(method="jl", matrix=np.ones((2, 4)), epsilon=1.0, delta=0.05, B=1.0)
        path = tmp_path / "wide.dps"
        header_file(path, {**VALID_HEADER, "r": 2, "d": 3}, b"\x00" * 64)
        with pytest.raises(SketchFileError, match="need rows >= d"):
            read_sketch(path)
        square = SketchFile(method="jl", matrix=np.eye(4)[:3], epsilon=1.0, delta=0.05, B=1.0)
        assert (square.r, square.d) == (3, 3)

    def test_bad_weights(self, tmp_path):
        for w in (0.0, -1.0, float("nan")):
            path = tmp_path / "w.dps"
            header = {**VALID_HEADER, "method": "l1-multilevel", "has_weights": True}
            header_file(path, header, b"\x00" * 16 + struct.pack("<d", w))
            with pytest.raises(SketchFileError, match="weights"):
                read_sketch(path)

    def test_constructor_checks_calibration(self):
        with pytest.raises(ParameterError):
            SketchFile(method="jl", matrix=np.ones((2, 2)), epsilon=1.0, delta=1.5, B=1.0)
        with pytest.raises(ParameterError):
            SketchFile(method="jl", matrix=np.ones((2, 2)), epsilon=1.0, delta=0.1, B=1.0, meta=[])


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def read_or_refuse(path):
    """A mutated file must either read back or raise SketchFileError."""
    try:
        return read_sketch(path)
    except SketchFileError:
        return None


class TestFuzz:
    @FUZZ
    @given(
        flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
        cut=st.none() | st.integers(0, 10**6),
    )
    def test_mutated_bytes(self, tmp_path, flips, cut):
        path = tmp_path / "f.dps"
        write_sketch(path, sample_file(method="l1-multilevel", r=3, weights=np.ones(3)))
        blob = bytearray(path.read_bytes())
        for pos, value in flips:
            blob[pos % len(blob)] = value
        path.write_bytes(bytes(blob[: cut % (len(blob) + 1)] if cut is not None else blob))
        read_or_refuse(path)

    @FUZZ
    @given(
        key=st.sampled_from(sorted(VALID_HEADER) + ["extra"]),
        value=JSON_VALUES,
        drop=st.booleans(),
    )
    def test_mutated_header(self, tmp_path, key, value, drop):
        path = tmp_path / "h.dps"
        header = dict(VALID_HEADER)
        if drop:
            header.pop(key, None)
        else:
            header[key] = value
        header_file(path, header, b"\x00" * 16)
        back = read_or_refuse(path)
        if back is not None:
            assert back.matrix.shape == (back.r, back.d + 1)


class TestAtomicWrite:
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "s.dps"
        write_sketch(path, sample_file())
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        # the header is already written when the payload fails
        monkeypatch.setattr(np, "ascontiguousarray", fail)
        with pytest.raises(OSError, match="disk full"):
            write_sketch(path, sample_file(r=9))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.dps"]

    def test_write_replaces_existing_file(self, tmp_path):
        path = tmp_path / "s.dps"
        write_sketch(path, sample_file())
        write_sketch(path, sample_file(r=9))
        assert read_sketch(path).r == 9
        assert [p.name for p in tmp_path.iterdir()] == ["s.dps"]
