"""The per-process cache of compiled capability-safe modules."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ShillSyntaxError
from repro.kernel import Kernel
from repro.lang import modules
from repro.lang.runner import ShillRuntime

LIB = "#lang shill/cap\nprovide twice : {x : is_num} -> is_num;\ntwice = fun(x) { x * 2; }\n"


def _runtime(source: str = LIB) -> ShillRuntime:
    return ShillRuntime(Kernel(), scripts={"lib.cap": source})


@pytest.fixture
def parses(monkeypatch) -> list:
    """Every call that reaches the parser, wrapped the way the benchmark
    wraps it (through the module attribute)."""
    seen: list = []
    real = modules.parse_source

    def counting(source, lang, filename="<script>"):
        seen.append(filename)
        return real(source, lang, filename)

    monkeypatch.setattr(modules, "parse_source", counting)
    return seen


def test_a_module_is_parsed_and_compiled_once_per_process(parses):
    unique = LIB + "# cached-once\n"
    first = _runtime(unique).load_cap_exports("lib.cap")["twice"]
    second_rt = _runtime(unique)
    second = second_rt.load_cap_exports("lib.cap")["twice"]
    assert parses == ["lib.cap"]
    assert second_rt.call(second, 21) == 42
    assert first.target.code is second.target.code     # one compiled body


def test_the_filename_is_part_of_the_key(parses):
    unique = LIB + "# keyed-by-name\n"
    rt = _runtime(unique)
    rt.register_script("other.cap", unique)
    rt.load_cap_exports("lib.cap")
    rt.load_cap_exports("other.cap")
    assert parses == ["lib.cap", "other.cap"]


def test_a_script_that_fails_to_parse_is_not_cached(parses):
    broken = "#lang shill/cap\nx = ;\n"
    for _ in range(2):
        with pytest.raises(ShillSyntaxError):
            _runtime(broken).loader.load("lib.cap")
    assert parses == ["lib.cap", "lib.cap"]


def test_equal_looking_literals_keep_their_own_code():
    # Lit(1) == Lit(True) == Lit(1.0) as dataclasses: compiled code must
    # not be shared between scripts whose trees are merely equal.
    values = []
    for literal in ("1", "true", "1.0"):
        env = _runtime(f"#lang shill/cap\ny = {literal};\n").loader.load("lib.cap").env
        values.append(env.lookup("y"))
    assert [type(v) for v in values] == [int, bool, float]


def test_the_cache_stays_bounded():
    for n in range(modules.MODULE_CACHE_SIZE + 8):
        _runtime(f"#lang shill/cap\ny = {n};\n").loader.load("lib.cap")
    assert modules.compile_module.cache_info().currsize <= modules.MODULE_CACHE_SIZE


def test_ambient_scripts_are_not_cached(parses):
    source = '#lang shill/ambient\nappend(stdout, "once\\n");\n'
    rt = _runtime()
    rt.run_ambient(source, "job.ambient")
    rt.run_ambient(source, "job.ambient")
    assert parses == ["job.ambient", "job.ambient"]
    assert rt.tty.text == "once\nonce\n"


def test_threads_share_the_cache_safely():
    source = LIB + "# threaded\n"
    results: list = []
    errors: list = []

    def work() -> None:
        try:
            for _ in range(20):
                rt = _runtime(source)
                results.append(rt.call(rt.load_cap_exports("lib.cap")["twice"], 4))
        except BaseException as err:       # reported on the main thread
            errors.append(err)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert results == [8] * 80
