"""Spans around folgerm's layers, recorded from outside the package.

``install(recorder)`` replaces each public function listed in ``TRACED``
with a wrapper in every folgerm module namespace that bound it (so
``germs.standard_basis`` and ``theorems.standard_basis`` both record), and
methods on their class.  A span is (name, start, end, parent span, op id,
input key, note); spans stay in memory until the run ends.  ``uninstall``
puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute) of every traced callable; "Class.method" wraps a
# method and a bare class name wraps its constructor.
TRACED = (
    ("cli", "main"),
    ("cli", "render_json"),
    ("documents", "parse_document"),
    ("documents", "load_local_problem"),
    ("documents", "load_projective_problem"),
    ("polynomials", "parse_poly"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "is_squarefree"),
    ("linalg", "kernel_basis"),
    ("linalg", "bareiss_rank"),
    ("linalg", "column_space_equal"),
    ("linalg", "sparse_int_rank"),
    ("localalg", "standard_basis"),
    ("localalg", "StandardBasis.normal_form"),
    ("localalg", "mult_operator"),
    ("localalg", "QuotientOperator.compose"),
    ("localalg", "stabilized_macaulay_dim"),
    ("germs", "FoliationGerm"),
    ("germs", "validate_balanced"),
    ("germs", "milnor_foliation"),
    ("germs", "tjurina_foliation"),
    ("germs", "intersection_multiplicity"),
    ("germs", "generic_polar"),
    ("blowup", "reduce_germ"),
    ("blowup", "blow_up"),
    ("blowup", "rational_roots"),
    ("theorems", "check_briancon_skoda"),
    ("theorems", "check_liu"),
    ("theorems", "check_cota"),
    ("theorems", "check_second_type"),
    ("projective", "check_form"),
    ("projective", "validate_form"),
    ("projective", "singular_points"),
    ("projective", "milnor_sum_certificate"),
    ("projective", "check_global_bound"),
)

MODULES = ("cli", "documents", "polynomials", "linalg", "localalg", "germs",
           "blowup", "theorems", "projective")

# Calls per distinct input within one op: built again inside a check.
KEYED = {"polynomials.poly_gcd", "localalg.standard_basis"}


def _input_key(args):
    key = tuple(tuple(a) if isinstance(a, list) else a for a in args)
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


def _certified_note(result):
    return bool(result[2])


NOTES = {"blowup.rational_roots": _certified_note}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None


def _wrap(recorder, name, fn):
    keyed = name in KEYED
    note = NOTES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(recorder.spans)
        parent = recorder.stack[-1] if recorder.stack else -1
        key = _input_key(args) if keyed else None
        recorder.spans.append(None)
        recorder.stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            recorder.stack.pop()
            flag = note(result) if note is not None and result is not None else None
            recorder.spans[index] = (name, start, end, parent, recorder.op, key, flag)

    return wrapper


def _modules():
    return {name: importlib.import_module(f"folgerm.{name}") for name in MODULES}


def install(recorder):
    """Wrap every traced callable; return the list needed to undo it."""
    modules = _modules()
    undo = []
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        module = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(recorder, name, original))
            undo.append((cls, method, original))
            continue
        original = getattr(module, attr)
        if isinstance(original, type):
            init = original.__dict__["__init__"]
            original.__init__ = _wrap(recorder, name, init)
            undo.append((original, "__init__", init))
            continue
        wrapper = _wrap(recorder, name, original)
        for namespace in modules.values():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
                    undo.append((namespace, key, original))
    return undo


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(spans):
    """Per-layer figures of one pass, from its spans.

    ``<name>.calls`` counts calls; ``<name>.s`` sums the outermost calls
    (a recursive call inside the same function is not counted twice);
    ``<module>.self_s`` is the time inside the module's spans minus the
    time of every span nested directly in them.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    child_time = defaultdict(float)
    keys = defaultdict(set)
    flags = defaultdict(list)
    for name, start, end, parent, op, key, flag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for index, (name, start, end, parent, op, key, flag) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
        self_s[name.split(".")[0]] += duration - child_time[index]
        if name in KEYED:
            keys[name].add((op, key))
        if flag is not None:
            flags[name].append(flag)
    metrics = {}
    for module_name, attr in TRACED:
        name = f"{module_name}.{attr}"
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = inclusive[name]
    for module_name in MODULES:
        metrics[f"{module_name}.self_s"] = self_s[module_name]
    for name in KEYED:
        metrics[f"{name}.repeat_ratio"] = calls[name] / len(keys[name]) if keys[name] else 0.0
    for name in NOTES:
        values = flags[name]
        metrics[f"{name}.certified_ratio"] = sum(values) / len(values) if values else 0.0
    return metrics
