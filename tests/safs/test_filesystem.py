"""Integration tests for the SAFS facade and I/O scheduler."""

import numpy as np
import pytest

from repro.safs.filesystem import SAFS, SAFSConfig
from repro.safs.io_request import IORequest, merge_request_arrays, merge_requests
from repro.safs.user_task import UserTask
from repro.sim.ssd_array import SSDArray, SSDArrayConfig
from repro.sim.stats import StatsCollector

PAGE = 4096


def make_safs(cache_pages=64, page_size=PAGE, num_ssds=4):
    stats = StatsCollector()
    array = SSDArray(SSDArrayConfig(num_ssds=num_ssds, stripe_pages=4), stats)
    config = SAFSConfig(page_size=page_size, cache_bytes=cache_pages * page_size)
    return SAFS(array, config, stats=stats)


class TestNamespace:
    def test_create_and_open(self):
        safs = make_safs()
        created = safs.create_file("graph", bytes(PAGE * 8))
        assert safs.open_file("graph") is created
        assert safs.file_names() == ["graph"]

    def test_duplicate_name_rejected(self):
        safs = make_safs()
        safs.create_file("graph", b"x")
        with pytest.raises(ValueError):
            safs.create_file("graph", b"y")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            make_safs().open_file("nope")


class TestSubmit:
    def test_completion_carries_correct_bytes(self):
        safs = make_safs()
        payload = bytes(range(256)) * (PAGE // 16)
        file = safs.create_file("f", payload)
        merged = merge_requests([IORequest(file, 100, 64)], PAGE)
        completions, _cpu = safs.submit_merged(merged, 0.0)
        assert len(completions) == 1
        assert bytes(completions[0].data) == payload[100:164]

    def test_completions_sorted_by_time(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 32))
        requests = [IORequest(file, p * PAGE, 16) for p in (30, 2, 17, 5)]
        merged = merge_requests(requests, PAGE)
        completions, _ = safs.submit_merged(merged, 0.0)
        times = [c.completion_time for c in completions]
        assert times == sorted(times)
        assert len(completions) == 4

    def test_cache_hit_is_faster_and_flagged(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        merged = merge_requests([IORequest(file, 0, 10)], PAGE)
        first, _ = safs.submit_merged(merged, 0.0)
        assert not first[0].cache_hit
        merged = merge_requests([IORequest(file, 0, 10)], PAGE)
        second, _ = safs.submit_merged(merged, first[0].completion_time)
        assert second[0].cache_hit
        device_time = first[0].completion_time
        hit_time = second[0].completion_time - first[0].completion_time
        assert hit_time < device_time

    def test_cached_pages_cost_no_device_reads(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        merged = merge_requests([IORequest(file, 0, 4 * PAGE)], PAGE)
        safs.submit_merged(merged, 0.0)
        fetched_before = safs.stats.get("io.pages_fetched")
        merged = merge_requests([IORequest(file, 0, 4 * PAGE)], PAGE)
        safs.submit_merged(merged, 1.0)
        assert safs.stats.get("io.pages_fetched") == fetched_before

    def test_partial_hit_fetches_only_missing_run(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        # Prime pages 0-1.
        safs.submit_merged(merge_requests([IORequest(file, 0, 2 * PAGE)], PAGE), 0.0)
        fetched_before = safs.stats.get("io.pages_fetched")
        # Request pages 0-3: only 2-3 should be fetched.
        safs.submit_merged(merge_requests([IORequest(file, 0, 4 * PAGE)], PAGE), 1.0)
        assert safs.stats.get("io.pages_fetched") == fetched_before + 2

    def test_unregistered_file_rejected(self):
        safs = make_safs()
        from repro.safs.page import SAFSFile

        rogue = SAFSFile("rogue", bytes(PAGE))
        merged = merge_requests([IORequest(rogue, 0, 10)], PAGE)
        with pytest.raises(ValueError):
            safs.submit_merged(merged, 0.0)

    def test_empty_submit(self):
        safs = make_safs()
        completions, cpu = safs.submit([], 0.0)
        assert completions == []
        assert cpu == 0.0

    def test_user_task_runs_on_completion_data(self):
        safs = make_safs()
        payload = b"A" * 50 + b"B" * 50 + bytes(PAGE)
        file = safs.create_file("f", payload)
        seen = []
        task = UserTask(
            on_complete=lambda data, ctx, t: seen.append((bytes(data), ctx, t))
        )
        merged = merge_requests([IORequest(file, 50, 50, task)], PAGE)
        completions, _ = safs.submit_merged(merged, 0.0)
        for done in completions:
            done.request.task.run(done.data, done.completion_time)
        assert seen == [(b"B" * 50, None, completions[0].completion_time)]


class TestMergeDisciplines:
    def test_engine_merge_issues_fewer_device_requests(self):
        # Two SAFS instances over identical files; one gets pre-merged
        # requests, the other raw per-vertex requests with no merging.
        def run(fs_merge):
            safs = make_safs(cache_pages=4)  # tiny cache, no reuse
            file = safs.create_file("f", bytes(PAGE * 64))
            requests = [IORequest(file, p * PAGE, PAGE) for p in range(32)]
            completions, cpu = safs.submit(requests, 0.0, fs_merge=fs_merge)
            last = max(c.completion_time for c in completions)
            return last, cpu, safs.stats.get("io.dispatched")

        t_unmerged, cpu_unmerged, n_unmerged = run(fs_merge=False)
        t_fs, cpu_fs, n_fs = run(fs_merge=True)
        assert n_fs < n_unmerged
        assert t_fs <= t_unmerged

    def test_engine_merge_cheaper_cpu_than_fs_merge(self):
        # Figure 12: merging in FlashGraph beats merging in SAFS because
        # the kernel path costs more CPU per incoming request.
        stats_cost = {}
        for mode in ("engine", "fs"):
            safs = make_safs(cache_pages=4)
            file = safs.create_file("f", bytes(PAGE * 64))
            requests = [IORequest(file, p * PAGE, PAGE) for p in range(32)]
            if mode == "engine":
                merged = merge_requests(requests, PAGE)
                _, cpu = safs.submit_merged(merged, 0.0)
            else:
                _, cpu = safs.submit(requests, 0.0, fs_merge=True)
            stats_cost[mode] = cpu
        assert stats_cost["engine"] < stats_cost["fs"]

    @pytest.mark.parametrize("fs_merge", [True, False])
    def test_kernel_priced_spans_match_submit(self, fs_merge):
        # The engine issues the counterfactual disciplines as windowed
        # array spans priced with ``kernel_requests``; that must replay
        # the object path of ``submit`` exactly.
        rng = np.random.default_rng(4)
        pages = rng.permutation(160)[:100]
        offsets = pages * PAGE + rng.integers(0, PAGE // 2, pages.size)
        lengths = rng.integers(1, PAGE, pages.size)
        outcomes = []
        for array_path in (False, True):
            safs = make_safs(cache_pages=8)
            file = safs.create_file("f", bytes(PAGE * 160))
            if array_path:
                window = safs.config.fs_merge_window if fs_merge else 1
                spans = merge_request_arrays(
                    np.full(pages.size, file.file_id), offsets, lengths, PAGE,
                    window=window,
                )
                span_done, cpu = safs.submit_spans(
                    spans, {file.file_id: file}, 0.5, kernel_requests=pages.size
                )
                done = span_done[spans.span_of_part]
                by_time = np.argsort(done, kind="stable")
                arrivals = spans.order[by_time].tolist()
                times = done[by_time].tolist()
            else:
                requests = [
                    IORequest(file, int(o), int(n), UserTask(context=i))
                    for i, (o, n) in enumerate(zip(offsets, lengths))
                ]
                completions, cpu = safs.submit(requests, 0.5, fs_merge=fs_merge)
                arrivals = [c.request.task.context for c in completions]
                times = [c.completion_time for c in completions]
            outcomes.append((arrivals, times, cpu, safs.stats.snapshot()))
        assert outcomes[0] == outcomes[1]


class TestPageSizes:
    def test_large_pages_fetch_more_flash_pages(self):
        small = make_safs(cache_pages=256, page_size=PAGE)
        large = make_safs(cache_pages=16, page_size=16 * PAGE)
        data = bytes(PAGE * 64)
        f_small = small.create_file("f", data)
        f_large = large.create_file("f", data)
        small.submit_merged(merge_requests([IORequest(f_small, 0, 100)], PAGE), 0.0)
        large.submit_merged(
            merge_requests([IORequest(f_large, 0, 100)], 16 * PAGE), 0.0
        )
        assert small.stats.get("ssd.pages_read") == 1
        assert large.stats.get("ssd.pages_read") == 16

    def test_sub_flash_page_still_reads_full_flash_page(self):
        safs = make_safs(cache_pages=256, page_size=1024)
        file = safs.create_file("f", bytes(PAGE * 4))
        safs.submit_merged(merge_requests([IORequest(file, 0, 10)], 1024), 0.0)
        assert safs.stats.get("ssd.pages_read") == 1

    def test_cached_bytes(self):
        safs = make_safs(cache_pages=64)
        file = safs.create_file("f", bytes(PAGE * 8))
        safs.submit_merged(merge_requests([IORequest(file, 0, 3 * PAGE)], PAGE), 0.0)
        assert safs.cached_bytes() == 3 * PAGE

    def test_reset_timing(self):
        safs = make_safs()
        file = safs.create_file("f", bytes(PAGE * 8))
        safs.submit_merged(merge_requests([IORequest(file, 0, PAGE)], PAGE), 0.0)
        safs.reset_timing()
        assert safs.cached_bytes() == 0
        assert safs.array.drain_time() == 0.0
