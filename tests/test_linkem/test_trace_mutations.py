"""Only named errors escape the trace loader (seeded mutation).

A valid trace file is damaged the ways trace files get damaged — cut
short, bytes flipped, lines dropped, duplicated or swapped, digits typed
as letters, a float or a negative where an integer belongs, CRLF line
ends, no final newline — and every mutant either loads (and is then a
well-formed trace) or raises a :class:`~repro.errors.TraceError` whose
message starts with the file's path. ``mm-trace info`` exits 0 or 2 on
each, never with another exception.

The mutator is seeded: the same mutants every run.
"""

import random

import pytest

from repro.cli import mm_trace
from repro.errors import TraceError
from repro.linkem import PacketDeliveryTrace, constant_rate_trace

MUTANTS = 300


def _lines(data):
    return data.split(b"\n")


def _truncate(data, rng):
    return data[:rng.randrange(len(data))]


def _flip_byte(data, rng):
    raw = bytearray(data)
    raw[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
    return bytes(raw)


def _drop_line(data, rng):
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"\n".join(lines)


def _duplicate_line(data, rng):
    lines = _lines(data)
    index = rng.randrange(len(lines))
    lines.insert(index, lines[index])
    return b"\n".join(lines)


def _swap_lines(data, rng):
    lines = _lines(data)
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[a], lines[b] = lines[b], lines[a]
    return b"\n".join(lines)


def _digit_to_letter(data, rng):
    digits = [i for i, byte in enumerate(data) if 48 <= byte <= 57]
    if not digits:
        return data
    raw = bytearray(data)
    raw[rng.choice(digits)] = rng.choice(b"lOoSBZx")
    return bytes(raw)


def _odd_line(data, rng):
    lines = _lines(data)
    lines.insert(rng.randrange(len(lines) + 1),
                 rng.choice([b"nan", b"1e3", b"-1", b"inf", b"3.5", b"0x10"]))
    return b"\n".join(lines)


def _crlf(data, rng):
    return data.replace(b"\n", b"\r\n")


def _no_final_newline(data, rng):
    return data.rstrip(b"\n")


MUTATORS = (_truncate, _flip_byte, _drop_line, _duplicate_line, _swap_lines,
            _digit_to_letter, _odd_line, _crlf, _no_final_newline)


def _mutants(base):
    rng = random.Random(20140619)
    for __ in range(MUTANTS):
        data = base
        for mutate in rng.sample(MUTATORS, rng.randint(1, 3)):
            data = mutate(data, rng) if data else data
        yield data


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "base.trace"
    constant_rate_trace(12, 60).to_file(path)
    return path.read_bytes()


def test_every_mutant_loads_or_names_its_path(base, tmp_path, monkeypatch,
                                              capsys):
    path = tmp_path / "link.trace"
    outcomes = {"loaded": 0, "refused": 0}
    for data in _mutants(base):
        path.write_bytes(data)
        try:
            trace = PacketDeliveryTrace.from_file(path)
        except TraceError as exc:
            assert str(exc).startswith(f"{path}: "), (data, exc)
            outcomes["refused"] += 1
        else:
            times = trace.times_ms
            assert times == sorted(times) and times[0] >= 0
            assert trace.period_ms > 0
            outcomes["loaded"] += 1
        monkeypatch.setattr("sys.argv", ["mm-trace", "info", str(path)])
        assert mm_trace.main() in (0, 2), data
        capsys.readouterr()
    # The mutator reaches both sides of the verdict.
    assert outcomes["loaded"] and outcomes["refused"], outcomes
