"""The three benchmark workloads: seeded inputs, the timed op loop, verdicts.

Each workload drives spinlrl only through its public API.  A workload has
three steps, which the child process runs in order:

* ``make_inputs(seed, scale)`` -- set-up: every input the run needs, drawn
  from the seed before the clock starts;
* ``run(inputs, clock)`` -- the timed part, one closed loop with one client:
  each op starts when the previous one has returned;
* ``verdicts(inputs, outputs, reference)`` -- untimed: checks every op's
  known answer and the reference digest of the whole output.

The import of ``spinlrl`` expects ``src/`` of the checkout on ``sys.path``;
``child.py`` and the self-tests put it there.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import speed
from spinlrl import expr, verify

# The core suite is left out: at d=3 it alone takes about 10 s a pass
# (SO21-METRIC about 7 s), and a run must hold several passes for its
# per-op medians to be steady on a shared host.
ORACLE_SUITES = ("sturm", "schrodinger")
# criterion 9 of the acceptance tests: oracle.random_function's defaults
ORACLE_MAX_DEGREE = 4
ORACLE_MIN_K = -2
# the oracle's test functions come from this seed, whatever --seed is: the
# cost of one trial varies about twofold with its function (8 s to 15 s for
# seeds 0..5 at d=3), so runs on different seeds would not be comparable.
# Seed 0, trial 0 is the first trial of criterion 9.
ORACLE_FUNCTION_SEED = 0

REDUCE_COEFFICIENTS = ("1", "alpha", "E", "i", "2", "3/2", "-1/3")
REDUCE_ATOM_KINDS = ("p", "x", "g", "rinv2")
# The shape of every reduce request (its d, whether it is a Jacobi sum, and
# the atoms of its six terms) comes from this fixed seed; --seed draws the
# coefficients and the order.  With shapes drawn from --seed as well, a few
# heavy d=4/5 triple products decide the run: wall time moved 12% and the
# 98th percentile 60% across three seeds.
REDUCE_SHAPE_SEED = 20250811


@dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL is what the benchmark measures; TINY is for the
    self-tests."""

    name: str
    verify_d: int
    oracle_d: int
    requests: int
    reduce_dims: Tuple[int, ...]


# Each full pass takes about 4-11 s, so a run holds several passes.  At
# verify_d=4 one pass takes about 20 s.
FULL = Scale("full", verify_d=3, oracle_d=3, requests=160, reduce_dims=(2, 3, 4, 5))
TINY = Scale("tiny", verify_d=2, oracle_d=2, requests=8, reduce_dims=(2, 3))
SCALES = {s.name: s for s in (FULL, TINY)}


# ---------------------------------------------------------------------------
# op timing
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    op_id: str
    seconds: float
    # at nominal host speed, see speed.py
    scaled: float
    error: Optional[str] = None


class OpClock:
    """Times each op from outside and keeps every attempt, failed or not.
    It samples the host's speed around and during each op (``speed.py``), so
    each op also gets its time at nominal host speed.

    ``hooks`` lets the traced run open a span around each op.
    """

    def __init__(self, hooks=None):
        self.records: List[OpRecord] = []
        self.hooks = hooks
        self.chunk_s = speed.chunk_time(10)

    def call(self, op_id: str, fn: Callable, *args):
        if self.hooks:
            self.hooks.begin_op(op_id)
        error = None
        sampler = speed.OpSampler()
        start = time.perf_counter()
        try:
            with sampler:
                return fn(*args)
        except Exception:
            error = traceback.format_exc(limit=3)
            raise
        finally:
            seconds = time.perf_counter() - start - sampler.stolen
            if self.hooks:
                self.hooks.end_op()
            before, self.chunk_s = self.chunk_s, speed.chunk_time()
            at_nominal = speed.scaled(seconds, [before, *sampler.chunks, self.chunk_s])
            self.records.append(OpRecord(op_id, seconds, at_nominal, error))

    def wrap(self, fn: Callable, op_id_of: Callable) -> Callable:
        """``fn`` timed as one op per call; ``op_id_of(args)`` names the op."""

        def timed(*args, **kwargs):
            return self.call(op_id_of(args), lambda: fn(*args, **kwargs))

        return timed


@dataclass
class Outcome:
    """Verdicts of one pass.  ``failed`` counts every op that raised, gave a
    wrong answer or could not be read back; ``wrong`` counts those whose
    answer was wrong, which makes the run fail."""

    attempted: int
    failed: int
    wrong: int
    digest: str
    digest_checked: bool
    digest_ok: bool
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and (self.digest_ok or not self.digest_checked)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_digest(reference: dict, key: str, seed: int, digest: str) -> Tuple[bool, bool]:
    """(checked, ok) against the reference entry for this workload and scale."""
    entry = reference.get(key)
    if entry is None or (entry["seed"] is not None and entry["seed"] != seed):
        return False, True
    return True, entry["sha256"] == digest


def _count_failures(records: List[OpRecord], expected_ids: List[str], bad_ids: set, problems: List[str]) -> int:
    """Ops that raised, answered wrongly, or never ran because an earlier op
    aborted the call that drives them."""
    done = {r.op_id for r in records}
    failed = 0
    for r in records:
        if r.error:
            problems.append(f"{r.op_id}: raised\n{r.error}")
            failed += 1
        elif r.op_id in bad_ids:
            failed += 1
    missing = [op for op in expected_ids if op not in done]
    if missing:
        problems.append(f"{len(missing)} ops never ran: {', '.join(missing[:5])}")
    return failed + len(missing)


# ---------------------------------------------------------------------------
# verify-d3: the whole registry through verify.run_suite
# ---------------------------------------------------------------------------


class VerifySuite:
    name = "verify-d3"

    def make_inputs(self, seed: int, scale: Scale) -> dict:
        d = scale.verify_d
        return {"seed": seed, "scale": scale, "d": d, "checks": [c.id for c in verify.list_checks("all") if c.applicable(d)]}

    def run(self, inputs: dict, clock: OpClock) -> dict:
        d = inputs["d"]
        original = verify.run_check
        verify.run_check = clock.wrap(original, lambda args: args[0])
        try:
            report = verify.run_suite("all", d)
            text = verify.report_to_json([report], no_timing=True)
        except Exception:
            return {"report": None, "text": "", "error": traceback.format_exc(limit=5)}
        finally:
            verify.run_check = original
        return {"report": report, "text": text, "error": None}

    def verdicts(self, inputs: dict, outputs: dict, records: List[OpRecord], reference: dict) -> Outcome:
        problems = [outputs["error"]] if outputs["error"] else []
        report = outputs["report"]
        bad = set()
        if report is not None:
            for result in report.results:
                if not result.passed:
                    bad.add(result.id)
                    problems.append(f"{result.id}: residual {result.term_count} terms at {result.failed_label}")
        failed = _count_failures(records, inputs["checks"], bad, problems)
        digest = _sha256(outputs["text"])
        checked, ok = _check_digest(reference, f"{self.name}/{inputs['scale'].name}", inputs["seed"], digest)
        return Outcome(len(inputs["checks"]), failed, failed, digest, checked, ok, problems)


# ---------------------------------------------------------------------------
# oracle-d3: oracle concordance of three suites through verify.crosscheck_suites
# ---------------------------------------------------------------------------


class OracleConcordance:
    name = "oracle-d3"

    def make_inputs(self, seed: int, scale: Scale) -> dict:
        d = scale.oracle_d
        checks = [c.id for s in ORACLE_SUITES for c in verify.list_checks(s) if c.applicable(d)]
        return {"seed": seed, "scale": scale, "d": d, "checks": checks}

    def run(self, inputs: dict, clock: OpClock) -> dict:
        original = verify.crosscheck_check
        verify.crosscheck_check = clock.wrap(original, lambda args: args[0])
        try:
            entries = verify.crosscheck_suites(
                ORACLE_SUITES, inputs["d"], trials=1, seed=ORACLE_FUNCTION_SEED,
                max_degree=ORACLE_MAX_DEGREE, min_k=ORACLE_MIN_K,
            )
        except Exception:
            return {"entries": [], "error": traceback.format_exc(limit=5)}
        finally:
            verify.crosscheck_check = original
        return {"entries": entries, "error": None}

    def verdicts(self, inputs: dict, outputs: dict, records: List[OpRecord], reference: dict) -> Outcome:
        problems = [outputs["error"]] if outputs["error"] else []
        bad = set()
        rows = []
        for e in outputs["entries"]:
            rows.append([e.check_id, e.label, e.agreed, None if e.witness is None else str(e.witness)])
            if not e.agreed:
                bad.add(e.check_id)
                problems.append(f"{e.check_id} {e.label}: oracle disagrees")
        failed = _count_failures(records, inputs["checks"], bad, problems)
        digest = _sha256(json.dumps(rows))
        checked, ok = _check_digest(reference, f"{self.name}/{inputs['scale'].name}", inputs["seed"], digest)
        return Outcome(len(inputs["checks"]), failed, failed, digest, checked, ok, problems)


# ---------------------------------------------------------------------------
# reduce-mix: a stream of independent `reduce` requests through expr
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    op_id: str
    d: int
    jacobi: bool
    text: str


def request_shapes(scale: Scale) -> List[tuple]:
    """(d, jacobi, atoms of each of six terms), the same for every seed.

    Every (d, kind) pair gets the same number of requests; each term has one
    or two atoms drawn from p_k, x_k, g_k and rinv2.
    """
    rng = random.Random(REDUCE_SHAPE_SEED)
    cells = [(d, jacobi) for d in scale.reduce_dims for jacobi in (True, False)]
    shapes = []
    for n in range(scale.requests):
        d, jacobi = cells[n % len(cells)]
        terms = []
        for _ in range(6):
            atoms = []
            for _ in range(rng.randint(1, 2)):
                kind = rng.choice(REDUCE_ATOM_KINDS)
                atoms.append(kind if kind == "rinv2" else f"{kind}{rng.randint(1, d)}")
            terms.append(" ".join(atoms))
        shapes.append((d, jacobi, terms))
    return shapes


def _polynomial(rng: random.Random, terms: List[str]) -> str:
    text = ""
    for n, atoms in enumerate(terms):
        coeff = rng.choice(REDUCE_COEFFICIENTS)
        if coeff.startswith("-"):
            text += ("-" if n == 0 else " - ") + f"{coeff[1:]} {atoms}"
        else:
            text += ("" if n == 0 else " + ") + f"{coeff} {atoms}"
    return text


def make_requests(seed: int, scale: Scale) -> List[Request]:
    """The seeded request stream: coefficients and order come from the seed."""
    rng = random.Random(seed)
    requests = []
    for n, (d, jacobi, terms) in enumerate(request_shapes(scale)):
        a, b, c = (_polynomial(rng, terms[2 * k:2 * k + 2]) for k in range(3))
        if jacobi:
            text = f"[[{a}, {b}], {c}] + [[{b}, {c}], {a}] + [[{c}, {a}], {b}]"
        else:
            text = f"({a}) ({b}) ({c})"
        requests.append(Request(f"r{n}", d, jacobi, text))
    rng.shuffle(requests)
    return requests


def reduce_request(request: Request) -> str:
    """What `spinlrl reduce --d D TEXT` computes and prints."""
    return expr.format_expr(expr.evaluate(request.text, request.d))


def round_trip_error(text: str, d: int) -> Optional[str]:
    """None when the canonical text reads back to itself, else why not.

    A RecursionError is reported, not raised: canonical texts of about a
    thousand terms hit the evaluator's recursion limit.
    """
    try:
        again = expr.format_expr(expr.evaluate(text, d))
    except RecursionError:
        return "RecursionError reading the canonical text back"
    except Exception as exc:
        return f"{type(exc).__name__} reading the canonical text back: {exc}"
    return None if again == text else "canonical text reads back to a different operator"


class ReduceMix:
    name = "reduce-mix"

    def make_inputs(self, seed: int, scale: Scale) -> dict:
        return {"seed": seed, "scale": scale, "requests": make_requests(seed, scale)}

    def run(self, inputs: dict, clock: OpClock) -> dict:
        texts: Dict[str, str] = {}
        for request in inputs["requests"]:
            try:
                texts[request.op_id] = clock.call(request.op_id, reduce_request, request)
            except Exception:
                pass  # the clock has recorded the failure
        return {"texts": texts}

    def verdicts(self, inputs: dict, outputs: dict, records: List[OpRecord], reference: dict) -> Outcome:
        problems: List[str] = []
        texts = outputs["texts"]
        bad = set()
        wrong = 0
        for request in inputs["requests"]:
            text = texts.get(request.op_id)
            if text is None:
                continue
            if request.jacobi:
                if text != "0":
                    wrong += 1
                    bad.add(request.op_id)
                    problems.append(f"{request.op_id}: Jacobi sum is not 0 at d={request.d}: {request.text}")
                continue
            error = round_trip_error(text, request.d)
            if error:
                bad.add(request.op_id)
                problems.append(f"{request.op_id}: {error} (d={request.d}, {text.count(' + ') + 1} terms)")
                if not error.startswith("RecursionError"):
                    wrong += 1
        ids = [r.op_id for r in inputs["requests"]]
        failed = _count_failures(records, ids, bad, problems)
        wrong += sum(1 for r in records if r.error)
        digest = _sha256("\n".join(texts.get(op_id, "<failed>") for op_id in ids))
        checked, ok = _check_digest(reference, f"{self.name}/{inputs['scale'].name}", inputs["seed"], digest)
        return Outcome(len(ids), failed, wrong, digest, checked, ok, problems)


WORKLOADS = {w.name: w for w in (VerifySuite(), OracleConcordance(), ReduceMix())}
