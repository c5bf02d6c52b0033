"""Independent reference implementations used to check product code,
and malformed inputs that it must refuse.

Everything here computes with exact Python integers and stays
deliberately naive; nothing imports from the package's arithmetic
beyond type-free helpers.
"""

import json
import math


def negacyclic_schoolbook(a, b, q):
    """(a * b) mod (x^n + 1) mod q, O(n^2) with exact integers."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        ai = int(a[i])
        if ai == 0:
            continue
        for j in range(n):
            k = i + j
            p = ai * int(b[j])
            if k < n:
                out[k] = (out[k] + p) % q
            else:
                out[k - n] = (out[k - n] - p) % q
    return out


def negacyclic_kronecker(a, b, q):
    """Same product via one big-integer multiply (packed digits)."""
    n = len(a)
    nbytes = (((q - 1) ** 2 * n).bit_length() + 8) // 8 + 1
    pa = b"".join(int(x).to_bytes(nbytes, "little") for x in a)
    pb = b"".join(int(x).to_bytes(nbytes, "little") for x in b)
    prod = int.from_bytes(pa, "little") * int.from_bytes(pb, "little")
    raw = prod.to_bytes(2 * n * nbytes + 16, "little")
    out = [0] * n
    for k in range(2 * n - 1):
        d = int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little")
        if k < n:
            out[k] = (out[k] + d) % q
        else:
            out[k - n] = (out[k - n] - d) % q
    return out


def crt_compose_centered(residues, primes):
    """Exact CRT lift of one coefficient to the centered range."""
    q_all = math.prod(primes)
    acc = 0
    for r, q in zip(residues, primes):
        m = q_all // q
        acc += int(r) * m * pow(m, -1, q)
    acc %= q_all
    return acc - q_all if acc > q_all // 2 else acc


def topr_select(scores, ratio):
    """Reference top-count selection: count = floor(r*n + 1/2), scores
    descending, index ascending on ties."""
    n = len(scores)
    k = math.floor(ratio * n + 0.5)
    order = sorted(range(n), key=lambda i: (-float(scores[i]), i))
    return sorted(order[:k])


def malformed_records(line):
    """One good records.jsonl line, broken five ways that every reader of
    a run directory must refuse."""
    def edit(change):
        body = json.loads(line)
        change(body)
        return json.dumps(body)             # float("nan") dumps as NaN

    return [edit(lambda b: b.update(test_accuracy=float("nan"))),
            edit(lambda b: b.pop("test_accuracy")),
            edit(lambda b: b.update(extra_key=1)),
            edit(lambda b: b.update(mask_count=True)),
            edit(lambda b: b.update(round=b["round"] + 1))]
