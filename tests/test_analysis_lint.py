"""Unit tests for the static lint framework and its rules."""

import textwrap
from pathlib import Path

from repro.analysis import Linter, all_rules, lint_paths


def run(snippet: str):
    """Lint one dedented snippet and return the findings."""
    return Linter().run_text(textwrap.dedent(snippet))


def codes(snippet: str):
    return [finding.code for finding in run(snippet)]


def test_rules_are_registered():
    registered = {cls.code for cls in all_rules()}
    assert {"SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
            "UNIT001", "UNIT002"} <= registered


# ---------------------------------------------------------------------------
# SIM001: dropped Event / process calls
# ---------------------------------------------------------------------------

def test_sim001_unyielded_process_call_in_generator():
    found = run("""
        def transfer(nbytes):
            yield 1

        def body():
            transfer(100)
            yield 2
    """)
    assert [f.code for f in found] == ["SIM001"]
    assert "yield from" in found[0].message


def test_sim001_unyielded_process_call_in_plain_function():
    found = run("""
        def transfer(nbytes):
            yield 1

        def main():
            transfer(100)
    """)
    assert [f.code for f in found] == ["SIM001"]
    assert "run_process" in found[0].message


def test_sim001_event_call_dropped_inside_generator():
    assert codes("""
        def body(lock, sim):
            lock.acquire()
            sim.timeout(5)
            yield 1
    """) == ["SIM001", "SIM001"]


def test_sim001_clean_when_yielded():
    assert codes("""
        def transfer(nbytes):
            yield 1

        def body(lock):
            yield lock.acquire()
            yield from transfer(100)
    """) == []


def test_sim001_spawn_and_ambiguous_names_not_flagged():
    # sim.process() is fire-and-forget by design; list.append shares its
    # name with SegmentWriter.append and must not be flagged.
    assert codes("""
        def worker():
            yield 1

        def append(self, block):
            yield 2

        def main(sim):
            sim.process(worker())
            out = []
            out.append(3)
    """) == []


def test_sim001_locally_bound_name_not_flagged():
    # ``check`` is also the name of a project generator, but here it is
    # a local (an assignment target or a parameter), so the call is not
    # a call to that generator.
    assert codes("""
        def check(source):
            yield 1

        def register(self, events):
            check = self._check
            for event in events:
                check(event)

        def apply(check, event):
            check(event)
    """) == []


def test_sim001_generator_still_flagged_beside_local_bindings():
    # Local bindings exempt only their own names, and only bare-name
    # calls: a dropped generator call in the same function is reported.
    found = run("""
        def transfer(nbytes):
            yield 1

        def body(self):
            check = self._check
            check(1)
            transfer(100)
            self.transfer(5)
            yield 2
    """)
    assert [f.code for f in found] == ["SIM001", "SIM001"]
    assert all("transfer()" in f.message for f in found)


def test_sim001_line_pragma_suppresses():
    assert codes("""
        def transfer(nbytes):
            yield 1

        def main():
            transfer(100)  # lint: disable=SIM001
    """) == []


# ---------------------------------------------------------------------------
# SIM002: wall-clock / unseeded randomness
# ---------------------------------------------------------------------------

def test_sim002_wall_clock_and_global_random():
    assert codes("""
        import random
        import time

        def sample():
            t = time.time()
            time.sleep(1)
            return random.randrange(10) + t
    """) == ["SIM002", "SIM002", "SIM002"]


def test_sim002_datetime_now():
    assert "SIM002" in codes("""
        import datetime

        def stamp():
            return datetime.datetime.now()
    """)


def test_sim002_seeded_random_is_clean():
    assert codes("""
        import random

        def sample(seed):
            rng = random.Random(seed)
            return rng.randrange(10)
    """) == []


def test_sim002_file_pragma_suppresses():
    assert codes("""
        # lint: disable-file=SIM002
        import time

        def sample():
            return time.time()
    """) == []


# ---------------------------------------------------------------------------
# SIM003: swallowed SimulationError
# ---------------------------------------------------------------------------

def test_sim003_bare_except():
    assert codes("""
        def run(step):
            try:
                step()
            except:
                pass
    """) == ["SIM003"]


def test_sim003_broad_except_swallowing():
    assert codes("""
        def run(step):
            try:
                step()
            except Exception:
                pass
    """) == ["SIM003"]


def test_sim003_reraise_and_use_are_clean():
    assert codes("""
        def run(step, log):
            try:
                step()
            except Exception as exc:
                log(exc)
            try:
                step()
            except Exception:
                raise
    """) == []


def test_sim003_specific_exception_is_clean():
    assert codes("""
        def run(step):
            try:
                step()
            except ValueError:
                pass
    """) == []


# ---------------------------------------------------------------------------
# UNIT001 / UNIT002
# ---------------------------------------------------------------------------

def test_unit001_exact_literals_flagged_anywhere():
    found = run("""
        CACHE = 16 * 1048576
        LIMIT = 1000000
    """)
    assert [f.code for f in found] == ["UNIT001", "UNIT001"]
    assert "MIB" in found[0].message


def test_unit001_factor_literals_only_in_mult_div():
    # 512 as a multiplier is a unit conversion; 512 alone is a count.
    assert codes("""
        def f(nsectors):
            nbytes = nsectors * 512
            queue_depth = 512
            return nbytes + queue_depth
    """) == ["UNIT001"]


def test_unit001_pragma_suppresses():
    assert codes("""
        SECTOR = 512 * 1  # lint: disable=UNIT001
    """) == []


def test_unit002_mixed_families():
    found = run("""
        from repro.units import KIB, MB

        def rate(batch, elapsed):
            return batch * 64 * KIB / MB / elapsed
    """)
    assert [f.code for f in found] == ["UNIT002"]


def test_unit002_single_family_is_clean():
    assert codes("""
        from repro.units import KIB, MIB

        def size(n):
            return n * KIB + 2 * MIB
    """) == []


# ---------------------------------------------------------------------------
# SIM004: zero-copy discipline on the data path
# ---------------------------------------------------------------------------

def run_hot(snippet: str, path: str = "src/repro/hw/mod.py"):
    """Lint a snippet as if it lived inside the hw/raid/lfs data path."""
    return Linter().run_text(textwrap.dedent(snippet), path=path)


def test_sim004_bytes_of_buffer_flagged_in_hot_path():
    found = run_hot("""
        def f(view):
            return bytes(view)
    """)
    assert [f.code for f in found] == ["SIM004"]
    assert "bytes(view)" in found[0].message


def test_sim004_ignores_code_outside_hot_path():
    assert run_hot("""
        def f(view):
            return bytes(view)
    """, path="src/repro/experiments/mod.py") == []


def test_sim004_bytes_of_size_constant_is_clean():
    # bytes(BLOCK_SIZE) builds zeros; bytes(n - k) likewise.
    assert run_hot("""
        def f(cut):
            return bytes(BLOCK_SIZE) + bytes(BLOCK_SIZE - cut)
    """) == []


def test_sim004_bytes_of_slice_flagged():
    found = run_hot("""
        def f(buf, a, b):
            return bytes(buf[a:b])
    """)
    assert [f.code for f in found] == ["SIM004"]


def test_sim004_slicing_bytes_param_in_process_flagged():
    found = run_hot("""
        def body(data: bytes):
            piece = data[0:512]
            yield piece
    """)
    assert [f.code for f in found] == ["SIM004"]
    assert "memoryview" in found[0].message


def test_sim004_plain_helpers_may_slice():
    # Metadata codecs are not simulation processes; slicing there is
    # out of scope.
    assert run_hot("""
        def decode(data: bytes):
            return data[0:4], data[4:8]
    """) == []


def test_sim004_pragma_allowlists_durability_boundary():
    assert run_hot("""
        def body(view):
            yield view
            chunk = bytes(view)  # lint: disable=SIM004
            return chunk
    """) == []


# ---------------------------------------------------------------------------
# SIM005: spans must be context-managed
# ---------------------------------------------------------------------------

def test_sim005_bare_span_call_flagged():
    found = run_hot("""
        def body(self, nbytes):
            self.sim.tracer.span("disk.read", "d0", nbytes=nbytes)
            yield nbytes
    """)
    assert [f.code for f in found] == ["SIM005"]
    assert "with" in found[0].message


def test_sim005_span_assigned_to_variable_flagged():
    # Holding the handle without entering it never sets the end time.
    found = run_hot("""
        def body(tracer):
            handle = tracer.span("scsi.transfer", "s0")
            yield 1
    """, path="src/repro/server/mod.py")
    assert [f.code for f in found] == ["SIM005"]


def test_sim005_with_statement_is_clean():
    assert run_hot("""
        def body(self, nbytes):
            with self.sim.tracer.span("disk.read", "d0") as span:
                span.set(nbytes=nbytes)
                yield nbytes
    """) == []


def test_sim005_only_simulation_processes_checked():
    # Plain helpers (no yield) are outside the kernel's span scoping.
    assert run_hot("""
        def helper(tracer):
            return tracer.span("disk.read", "d0")
    """) == []


def test_sim005_ignores_code_outside_instrumented_dirs():
    assert run_hot("""
        def body(tracer):
            tracer.span("x", "y")
            yield 1
    """, path="src/repro/experiments/mod.py") == []


def test_sim005_other_span_methods_not_flagged():
    # A .span attribute on something that is not a tracer is fine.
    assert run_hot("""
        def body(layout):
            layout.span(3)
            yield 1
    """) == []


def test_sim005_pragma_suppresses():
    assert run_hot("""
        def body(tracer):
            tracer.span("disk.read", "d0")  # lint: disable=SIM005
            yield 1
    """) == []


# ---------------------------------------------------------------------------
# framework behaviour
# ---------------------------------------------------------------------------

def test_run_paths_expands_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "def g():\n    yield 1\n\ndef f():\n    g()\n")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1000000\n")
    findings = lint_paths([str(tmp_path / "pkg")])
    assert [f.code for f in findings] == ["SIM001"]
    assert findings[0].path.endswith("mod.py")


def test_repo_source_tree_is_lint_clean():
    """The acceptance criterion: the shipped tree has zero findings."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    assert lint_paths([str(src)]) == []


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.analysis.__main__ import main

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0

    dirty = tmp_path / "dirty.py"
    dirty.write_text("def g():\n    yield 1\n\ndef f():\n    g()\n")
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out
