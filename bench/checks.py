"""Correctness checks of folgerm reports.

Each check derives what a report must say from closed forms and from
properties the method must have (Briançon-Skoda for plane curves, the Liu
sandwich, nu^2 <= mu, the Milnor budget d^2 + d + 1), never from a stored
copy of an earlier report.  ``check(op, exit_code, report, seen)`` returns
the list of problems; an empty list means the report is correct.  ``seen``
carries mu from one op to the next within a pass: every report on the same
germ must give the same mu, so a mu that only one op reports is still tied
to the invariants report, where it meets the truncated-series oracle.  The test
"the residual of an irrational stop has no rational root" needs sympy and
runs in the parent process on the residuals that ``residual_claims`` picks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import polys

VERDICTS = ("pass", "fail", "not-applicable")


class _Problems(list):
    def expect(self, ok, message):
        if not ok:
            self.append(message)

    def equal(self, data, key, value):
        if key not in data:
            self.append(f"{key} missing")
        elif data[key] != value:
            self.append(f"{key} = {data[key]!r}, expected {value!r}")


def check(op, exit_code, report, seen=None):
    problems = _Problems()
    if not isinstance(report, dict):
        return [f"no report (exit code {exit_code})"]
    verdict = report.get("verdict")
    problems.expect(report.get("check") == op["cmd"], f"check is {report.get('check')!r}")
    problems.expect(verdict in VERDICTS, f"unknown verdict {verdict!r}")
    problems.expect(
        exit_code == (1 if verdict == "fail" else 0),
        f"exit code {exit_code} with verdict {verdict!r}",
    )
    data = report.get("data")
    if not isinstance(data, dict):
        return problems + ["data missing"]
    expect = op["expect"]
    kind = expect["kind"]
    if kind == "fk":
        _check_fk(problems, expect, verdict, data)
    elif kind == "hamiltonian":
        _check_hamiltonian(problems, op["cmd"], expect, verdict, data)
    elif kind == "pq":
        _check_pq(problems, op["cmd"], expect, verdict, data)
    elif kind == "projective":
        _check_projective(problems, op["cmd"], expect, verdict, data)
    else:
        raise ValueError(f"unknown input kind {kind!r}")
    if "mu" in data and kind != "projective":
        nu, _ = _orders(expect)
        problems.expect(nu * nu <= data["mu"], f"mu {data['mu']} < nu^2 = {nu * nu}")
        if seen is not None:
            first = seen.setdefault(op["doc"], data["mu"])
            problems.expect(first == data["mu"], f"mu {data['mu']} but {first} in another report")
    return list(problems)


def _orders(expect):
    """(nu, nu0): multiplicity of the germ and order of its zero divisor."""
    if "f" in expect:
        f = polys.from_json(expect["f"])
        parts = [polys.diff(f, 0), polys.diff(f, 1)]
        nu0 = polys.order(f)
    else:
        parts = [polys.from_json(expect["P"]), polys.from_json(expect["Q"])]
        nu0 = None
    return min(polys.order(p) for p in parts if p), nu0


def _check_fk(problems, expect, verdict, data):
    k = expect["k"]
    nu, _ = _orders(expect)
    xi = nu - polys.order(polys.from_json(expect["zero"])) + 1
    problems.expect(nu == k and xi == k - 1, f"fk({k}) has nu {nu}, xi {xi}")
    problems.equal(data, "mu", k * (2 * k - 1))
    problems.expect(verdict == "fail", "fk(k) is not of second type: x^2*y^2 is not in (P, Q)")
    for key in ("member_normal_form", "member_operator_square", "member_image_in_kernel"):
        problems.equal(data, key, False)
    problems.equal(data, "second_type", xi == 0)
    problems.equal(data, "zero_divisor", "x*y")


def _check_mu_tau(problems, expect, data):
    if "mu" in expect:
        problems.equal(data, "mu", expect["mu"])
    if "tau" in expect and "tau" in data:
        problems.equal(data, "tau", expect["tau"])
    if "tau" in data and "mu" in data:
        mu, tau = data["mu"], data["tau"]
        problems.expect(tau <= mu <= 2 * tau, f"sandwich fails: tau {tau}, mu {mu}")


def _check_reduction(problems, data, hamiltonian):
    blowups = data.get("blowups")
    components = data.get("components", [])
    singularities = data.get("singularities", [])
    problems.expect(isinstance(blowups, int) and blowups >= 0, "blowups missing")
    problems.expect(
        [c.get("index") for c in components] == list(range(1, (blowups or 0) + 1)),
        "one exceptional component per blow-up",
    )
    problems.equal(data, "dicritical", any(c.get("dicritical") for c in components))
    problems.equal(
        data, "second_type", not any(s.get("weak_along_divisor") for s in singularities)
    )
    problems.equal(
        data, "generalized_curve", not any(s.get("kind") == "saddle_node" for s in singularities)
    )
    if hamiltonian:
        # df has a first integral: no saddle-node, no dicritical component.
        problems.equal(data, "dicritical", False)
        problems.equal(data, "generalized_curve", True)
        problems.equal(data, "second_type", True)


def _check_reduce(problems, verdict, data, hamiltonian):
    if verdict == "pass":
        _check_reduction(problems, data, hamiltonian)
    else:
        # A reduction that stops reports either an irrational residual, whose
        # roots the parent process tests, or (with no data) an exhausted
        # blow-up budget.
        problems.expect(verdict == "fail", f"reduce verdict {verdict!r}")
        problems.expect(
            set(data) in ({"residual", "certified"}, set()),
            f"a stopped reduction reports {sorted(data)}",
        )


def residual_claims(op, report):
    """Residual of a reduction stopped on a certified irrational point, if any.

    An uncertified stop (the root search ran out of budget) makes no claim
    about the residual's roots, so there is nothing to test.
    """
    if op["cmd"] != "reduce" or not isinstance(report, dict):
        return None
    data = report.get("data") or {}
    if report.get("verdict") == "fail" and data.get("certified") is True:
        return data.get("residual")
    return None


def _check_hamiltonian(problems, cmd, expect, verdict, data):
    nu, nu0 = _orders(expect)
    _check_mu_tau(problems, expect, data)
    if cmd == "reduce":
        _check_reduce(problems, verdict, data, hamiltonian=True)
        return
    problems.expect(verdict == "pass", f"verdict {verdict!r} on a Hamiltonian germ")
    if cmd == "invariants":
        problems.expect(data.get("mu") == data.get("mu_oracle"), "mu != mu_oracle")
        problems.equal(data, "multiplicity", nu)
        problems.equal(data, "nu_zero", nu0)
        problems.equal(data, "nu_pole", 0)
        problems.equal(data, "nu_signed", nu0)
        problems.equal(data, "xi", 0)
        problems.equal(data, "second_type", True)
    elif cmd == "check-bs":
        for key in ("member_normal_form", "member_operator_square", "member_image_in_kernel"):
            problems.equal(data, key, True)
        problems.equal(data, "second_type", True)
    elif cmd == "check-liu":
        problems.equal(data, "xi", 0)
        problems.equal(data, "sandwich", True)
        two_tau = data.get("mu") == 2 * data.get("tau", -1)
        problems.equal(data, "mu_equals_2tau", two_tau)
        problems.equal(data, "kernel_equals_image", two_tau)
    elif cmd == "check-cota":
        problems.equal(data, "xi", 0)
        problems.equal(data, "lhs", (nu0 - 1) ** 2)
        problems.equal(data, "nu_squared", nu * nu)
        problems.equal(data, "two_tau", 2 * data.get("tau", 0))
    elif cmd == "check-second-type":
        problems.equal(data, "xi", 0)
        problems.equal(data, "criterion", True)
        if "reduction" in data:
            problems.equal(data, "reduction", True)


def _check_pq(problems, cmd, expect, verdict, data):
    nu, _ = _orders(expect)
    if cmd == "invariants":
        problems.expect(verdict == "pass", f"verdict {verdict!r}")
        problems.expect(data.get("mu") == data.get("mu_oracle"), "mu != mu_oracle")
        problems.equal(data, "multiplicity", nu)
    elif cmd == "reduce":
        _check_reduce(problems, verdict, data, hamiltonian=False)


def _point_rows(data, key):
    rows = data.get(key, [])
    return [(polys.parse_point(row["point"]), row) for row in rows]


def _check_projective(problems, cmd, expect, verdict, data):
    d = expect["degree"]
    budget = d * d + d + 1
    coeffs = [polys.from_json(expect[key]) for key in "ABC"]
    problems.equal(data, "degree", d)
    problems.equal(data, "milnor_expected", budget)
    rows = _point_rows(data, "singular_points" if cmd == "projective-validate" else "points")
    points = [p for p, _ in rows]
    problems.expect(len(set(points)) == len(points), "a point is reported twice")
    for point, row in rows:
        problems.expect(
            all(polys.evaluate(c, point) == 0 for c in coeffs),
            f"{row['point']} is not a zero of A, B and C",
        )
        problems.expect(row.get("mu", 0) >= 1, f"mu < 1 at {row['point']}")
    lines = expect["lines"]
    meets = [polys.line_meet(*pair) for pair in itertools.combinations(lines or [], 2)]
    missing = [m for m in meets if m not in points]
    if cmd == "projective-validate":
        problems.expect(verdict == "pass", f"verdict {verdict!r}")
        total = sum(row["mu"] for _, row in rows)
        problems.equal(data, "milnor_sum", total)
        problems.expect(
            data.get("milnor_sum", 0) + data.get("milnor_deficit", 0) == budget,
            "milnor_sum + milnor_deficit != d^2 + d + 1",
        )
        problems.equal(data, "milnor_certified", data.get("milnor_deficit") == 0)
        problems.expect(not missing, f"{len(missing)} line intersections not reported")
        if expect["curve"] is not None:
            problems.equal(data, "curve_invariant", True)
        return
    # projective-global: every meet of two lines is a singular point, mu >= 1.
    problems.expect(
        data.get("milnor_sum", 0) >= len(meets),
        f"milnor_sum {data.get('milnor_sum')} below the {len(meets)} line intersections",
    )
    problems.equal(data, "curve_degree", len(lines))
    if data.get("milnor_sum") != budget:
        problems.expect(verdict == "not-applicable", "uncertified locus must be not-applicable")
        return
    curve = polys.from_json(expect["curve"])
    on_curve = [polys.evaluate(curve, p) == 0 for p in points]
    for (_, row), on in zip(rows, on_curve):
        problems.expect(row.get("on_curve") == on, f"on_curve wrong at {row['point']}")
    problems.expect(not missing, f"{len(missing)} line intersections not reported")
    wanted = "pass" if all(on_curve) else "not-applicable"
    problems.expect(verdict == wanted, f"verdict {verdict!r}, expected {wanted!r}")
