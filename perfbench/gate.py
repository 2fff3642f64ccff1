"""Correctness gate: every job's output against its golden value and, where
one exists, an exact closed form.  Nothing here uses floats.

Outputs are first mapped back to the original basis labels (`unlabel`), so
a seeded relabelling still matches the goldens recorded with another seed.

Closed forms (all exact, in Q or Q(sqrt 5)):
    group of order n  validate passes; FPdim of the category is n
    TY(Z/n)           the interval [lo, hi] of FPdim(m) has lo^2 <= n <= hi^2;
                      FPdim of the category is 2n
    Fib^k             FPdim of a simple with j factors x is phi^j; FPdim of the
                      category is ((5 + sqrt 5)/2)^k
    gal7 (x) B        the center bound is strict; where FPdim(B) has a closed
                      form, the prediction equals FPdim(B)^2
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional


def unlabel(obj: Any, names: dict[str, str]) -> Any:
    """Replace every string that is a relabelled basis label, keys included."""
    if isinstance(obj, str):
        return names.get(obj, obj)
    if isinstance(obj, dict):
        return {names.get(k, k): unlabel(v, names) for k, v in obj.items()}
    if isinstance(obj, list):
        return [unlabel(v, names) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt 5): a + b sqrt 5 as (a, b)

Q5 = tuple[Fraction, Fraction]


def q5_mul(x: Q5, y: Q5) -> Q5:
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q5_pow(x: Q5, k: int) -> Q5:
    out: Q5 = (Fraction(1), Fraction(0))
    for _ in range(k):
        out = q5_mul(out, x)
    return out


PHI: Q5 = (Fraction(1, 2), Fraction(1, 2))
FIB_DIM: Q5 = (Fraction(5, 2), Fraction(1, 2))  # 1 + phi^2


def q5_sign(x: Q5) -> int:
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    d = a * a - 5 * b * b
    return sa if d > 0 else (sb if d < 0 else 0)


def q5_min_poly(x: Q5) -> list[Fraction]:
    a, b = x
    return [-a] + [Fraction(1)] if b == 0 else [a * a - 5 * b * b, -2 * a, Fraction(1)]


def q5_canonical(x: Q5) -> Any:
    """The form child.canonical_value gives this number (root 1 = the larger
    conjugate, for b > 0)."""
    if x[1] == 0:
        return str(x[0])
    return {"min_poly": [str(c) for c in q5_min_poly(x)], "root": 1 if x[1] > 0 else 0}


def q5_payload_ok(payload: dict, x: Q5) -> bool:
    """A CLI value payload (min_poly and interval strings) certifies x."""
    if x[1] == 0:
        return payload["value"] == str(x[0])
    lo, hi = (Fraction(v) for v in payload["interval"])
    return (
        [Fraction(c) for c in payload["min_poly"]] == q5_min_poly(x)
        and q5_sign((x[0] - lo, x[1])) >= 0
        and q5_sign((hi - x[0], -x[1])) >= 0
    )


def sqrt_payload_ok(payload: dict, n: int) -> bool:
    lo, hi = (Fraction(v) for v in payload["interval"])
    return 0 <= lo and lo * lo <= n <= hi * hi


# ---------------------------------------------------------------------------
# oracles


def _cli_oracle(cmd: str, oracle: dict, out: dict) -> list[str]:
    kind = oracle["kind"]
    bad: list[str] = []
    if kind == "group":
        n = oracle["order"]
        if cmd == "validate" and not (out["passed"] and out["violations"] == []):
            bad.append("group ring fails validation")
        if cmd == "integrality" and (out["value"] != str(n) or not out["algebraic_integer"]):
            bad.append(f"FPdim of the category is not {n}")
    elif kind == "ty":
        n = oracle["n"]
        values = out.get("elements") or out.get("coefficients")
        if values is not None and not sqrt_payload_ok(values["m"], n):
            bad.append(f"FPdim(m) interval does not bracket sqrt({n})")
        if cmd == "integrality" and out["value"] != str(2 * n):
            bad.append(f"FPdim of the category is not {2 * n}")
    elif kind == "fib_power":
        values = out.get("elements") or out.get("coefficients")
        for label, payload in (values or {}).items():
            if not q5_payload_ok(payload, q5_pow(PHI, label.split(".").count("x"))):
                bad.append(f"FPdim({label}) is not a power of phi")
        if cmd == "integrality" and not q5_payload_ok(out, q5_pow(FIB_DIM, oracle["k"])):
            bad.append("FPdim of the category is not ((5+sqrt5)/2)^k")
    else:
        raise ValueError(f"unknown oracle {kind!r}")
    return bad


def _session_oracle(oracle: dict, out: Any) -> list[str]:
    kind = oracle["kind"]
    bad: list[str] = []
    if kind == "center_strict":
        if not (out["bound_ok"] and out["strict"] and out["consistent"]) or out["equality"]:
            bad.append("center bound is not strict")
        if "q5_power" in oracle:
            expected = q5_canonical(q5_pow(FIB_DIM, oracle["q5_power"]))
        else:
            expected = oracle.get("rational", out["predicted"])
        if out["predicted"] != expected:
            bad.append("center prediction is not FPdim(B)^2")
    elif kind == "morita_equal":
        if not out["equal"] or out["ratio_a"] != out["ratio_b"]:
            bad.append("Morita ratios of isomorphic rings differ")
    elif kind == "morita_q5":
        a = tuple(Fraction(v) for v in oracle["a"])
        b = tuple(Fraction(v) for v in oracle["b"])
        if out["ratio_a"] != q5_canonical(a) or out["ratio_b"] != q5_canonical(b):
            bad.append("Morita ratio differs from its closed form")
        if out["equal"] != (a == b):
            bad.append("Morita comparison is wrong")
    elif kind == "passed":
        if not out["passed"]:
            bad.append(f"check failed: {out['rules']}")
    elif kind == "width":
        if not all(v["width_ok"] for v in out.values()):
            bad.append("refined interval is wider than requested")
    elif kind == "only_unit":
        if out != [{oracle["unit"]: 1}]:
            bad.append("idempotents above the unit other than the unit")
    else:
        raise ValueError(f"unknown oracle {kind!r}")
    return bad


def check(job, code: Optional[int], output: Any, golden: Optional[dict]) -> list[str]:
    """Problems with one job result (empty when it passes).  `output` is
    already unlabelled: parsed stdout for a CLI job, the canonical form for
    a session job."""
    if golden is None:
        return ["no golden value recorded"]
    if code != golden["code"]:
        return [f"exit code {code}, expected {golden['code']}"]
    bad = [] if output == golden["output"] else ["output differs from the golden value"]
    if job.oracle is not None:
        try:
            if job.kind == "cli":
                bad += _cli_oracle(job.spec["cmd"], job.oracle, output)
            else:
                bad += _session_oracle(job.oracle, output)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            bad.append(f"output does not have the form its closed form needs: {exc!r}")
    return bad
