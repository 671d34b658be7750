"""Seeded fuzz of ``branchpolar analyze``: random small branches and mangled
DSL text must each end in a report or a typed JSON error with a documented
exit code, never in a traceback."""

import json
import random
from fractions import Fraction

from branchpolar.cli import main

ALPHABET = "xyt^=;+-*/, 0123456789abcwhere"


def _random_spec(rng: random.Random) -> str:
    n = rng.randint(1, 6)
    exps = sorted(rng.sample(range(n + 1, n + 30), rng.randint(1, 4)))
    terms = []
    for e in exps:
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        terms.append(f"{c} t^{e}")
    return f"x=t^{n}; y=" + " + ".join(terms)


def _mangle(rng: random.Random, text: str) -> str:
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and k < len(chars):
            del chars[k]
        elif op == 1:
            chars.insert(k, rng.choice(ALPHABET))
        elif k < len(chars):
            chars[k] = rng.choice(ALPHABET)
    return "".join(chars)


def test_fuzzed_inputs_end_in_a_report_or_a_typed_error(capsys):
    rng = random.Random(20261019)
    cases = [_random_spec(rng) for _ in range(60)]
    cases += [_mangle(rng, _random_spec(rng)) for _ in range(60)]
    outcomes = set()
    for text in cases:
        code = main(["analyze", text, "--directions", "2"])
        out = capsys.readouterr().out
        assert code in (0, 1, 2), text
        if out:  # argparse rejects a spec that looks like an option: no JSON
            payload = json.loads(out)
            assert ("error" in payload) == (code != 0), text
            if code == 1:
                assert payload["error"]["stage"] and payload["error"]["kind"], text
        else:
            assert code == 2, text
        outcomes.add(code)
    assert outcomes == {0, 1, 2}
