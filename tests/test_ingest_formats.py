"""Trace-format parsers: blktrace, MSR CSV, fio iolog, autodetection."""

import cProfile
import gzip
import itertools
import pstats
import shutil
from pathlib import Path

import pytest

from repro.errors import WorkloadError
from repro.ingest import detect_format, parse_blktrace, parse_fio, parse_msr
from repro.ingest.base import iter_lines
from repro.ingest.detect import parse_source
from repro.workloads.trace import TimedAccess

DATA = Path(__file__).parent / "data"

BLK_LINES = [
    "  8,0    1        1     0.000012000  4510  Q  RA 2048 + 16 [fio]",
    "  8,0    1        2     0.000050000  4510  G  RA 2048 + 16 [fio]",
    "  8,0    2        3     0.001512000  4511  Q  WS 4096 + 8 [fio]",
    "  8,0    2        4     0.003012000  4511  C  WS 4096 + 8 [0]",
    "  8,0    1        5     0.004000000  4510  Q   R 2064 + 16 [fio]",
]

MSR_LINES = [
    "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime",
    "128166372003061629,usr,0,Read,8192,8192,1331",
    "128166372003111629,usr,0,Write,40960,4096,900",
    "128166372003211629,usr,1,Read,0,16384,4005",
]

FIO_LINES = [
    "fio version 3 iolog",
    "0 /data/f add",
    "0 /data/f open",
    "2 /data/f read 0 65536",
    "5 /data/f write 65536 4096",
    "9 /data/f close",
]


class TestBlktrace:
    def test_parses_queue_events_only(self):
        records = list(parse_blktrace(BLK_LINES))
        assert len(records) == 3
        assert [r.is_write for r in records] == [False, True, False]
        # 2048 sectors * 512 B = 1 MiB = block 256 at 4-KB blocks
        assert records[0].runs == ((256, 2),)

    def test_timestamps_rezeroed_to_ms(self):
        records = list(parse_blktrace(BLK_LINES))
        assert isinstance(records[0], TimedAccess)
        assert records[0].timestamp_ms == 0.0
        assert records[1].timestamp_ms == pytest.approx(1.5)

    def test_device_filter(self):
        lines = BLK_LINES + [
            "  8,16   0        9     0.005000000  4512  Q   R 0 + 8 [fio]"
        ]
        assert len(list(parse_blktrace(lines))) == 4
        assert len(list(parse_blktrace(lines, device="8,16"))) == 1

    def test_action_filter(self):
        assert len(list(parse_blktrace(BLK_LINES, action="C"))) == 1

    def test_summary_lines_skipped(self):
        lines = BLK_LINES + ["Total (8,0):", " Reads Queued: 2, 16KiB"]
        assert len(list(parse_blktrace(lines))) == 3

    def test_malformed_payload_names_line(self):
        lines = ["  8,0  0  1  0.0  1  Q  R 2048 % 16 [x]"]
        with pytest.raises(WorkloadError, match="line 1"):
            list(parse_blktrace(lines))


class TestMsr:
    def test_parses_rows(self):
        records = list(parse_msr(MSR_LINES))
        assert len(records) == 3
        assert records[0].runs == ((2, 2),)
        assert records[1].is_write

    def test_filetime_ticks_to_ms(self):
        records = list(parse_msr(MSR_LINES))
        assert records[0].timestamp_ms == 0.0
        assert records[1].timestamp_ms == pytest.approx(5.0)

    def test_disk_number_filter(self):
        assert len(list(parse_msr(MSR_LINES, disk_number=1))) == 1

    def test_bad_type_names_line(self):
        lines = MSR_LINES[:2] + ["128166372003061630,usr,0,Flush,0,4096,1"]
        with pytest.raises(WorkloadError, match="line 3"):
            list(parse_msr(lines))

    def test_header_only_tolerated_on_first_line(self):
        lines = [MSR_LINES[1], MSR_LINES[0]]
        with pytest.raises(WorkloadError, match="line 2"):
            list(parse_msr(lines))


class TestFio:
    def test_parses_iolog_v3(self):
        records = list(parse_fio(FIO_LINES))
        assert len(records) == 2
        assert records[0].runs == ((0, 16),)
        assert records[0].timestamp_ms == 0.0
        assert records[1].timestamp_ms == pytest.approx(3.0)
        assert records[1].is_write

    def test_v2_has_zero_timestamps(self):
        lines = ["fio version 2 iolog", "/data/f read 0 4096"]
        (record,) = list(parse_fio(lines))
        assert record.timestamp_ms == 0.0

    def test_missing_header_rejected(self):
        with pytest.raises(WorkloadError, match="line 1"):
            list(parse_fio(["2 /data/f read 0 65536"]))

    def test_unknown_action_names_line(self):
        lines = FIO_LINES[:4] + ["6 /data/f reed 0 4096"]
        with pytest.raises(WorkloadError, match="line 5"):
            list(parse_fio(lines))


class TestDetect:
    def test_detects_all_formats(self, tmp_path):
        cases = {
            "blktrace": DATA / "sample_blktrace.txt",
            "msr": DATA / "sample_msr.csv",
            "fio": DATA / "sample_fio.log",
        }
        for fmt, path in cases.items():
            assert detect_format(path) == fmt

    def test_detects_jsonl(self):
        assert detect_format(['{"meta": {}}']) == "jsonl"

    def test_unrecognized_raises(self):
        with pytest.raises(WorkloadError, match="unrecognized"):
            detect_format(["what even is this", "not a trace"])

    def test_parse_source_auto_on_samples(self):
        fmt, records = parse_source(DATA / "sample_msr.csv")
        assert fmt == "msr"
        assert len(list(records)) == 80


class TestGzipAndStreaming:
    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("\n".join(BLK_LINES) + "\n")
        assert detect_format(path) == "blktrace"
        assert len(list(parse_blktrace(path))) == 3

    def test_constant_memory_never_materializes_source(self):
        """Parsers must be lazy: pull 5 records off an endless source."""

        def endless():
            yield "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime"
            for i in itertools.count():
                yield f"{128166372003061629 + i * 10_000},usr,0,Read,{4096 * i},4096,100"

        records = parse_msr(endless())
        first_five = list(itertools.islice(records, 5))
        assert len(first_five) == 5
        assert first_five[4].runs == ((4, 1),)

    def test_reading_a_path_costs_the_same_at_any_depth(self, tmp_path):
        """Opening a path does no per-component work, so a profiled
        replay counts the same calls wherever the checkout sits."""
        shallow = tmp_path / "a.log"
        deep = tmp_path / "x" / "y" / "z" / "a.log"
        deep.parent.mkdir(parents=True)
        for path in (shallow, deep):
            shutil.copy(DATA / "sample_fio.log", path)

        def calls(path):
            profiler = cProfile.Profile()
            profiler.enable()
            list(iter_lines(path))
            profiler.disable()
            return pstats.Stats(profiler).total_calls

        assert calls(shallow) == calls(deep)

    def test_sample_files_stay_small(self):
        for name in (
            "sample_blktrace.txt",
            "sample_msr.csv",
            "sample_fio.log",
        ):
            assert (DATA / name).stat().st_size < 50_000
