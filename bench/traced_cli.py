"""Run one ``thetacalc`` CLI query with every measured layer wrapped in spans.

    python bench/traced_cli.py OUT_PREFIX ARGV...

Behaves like ``python -m thetacalc.cli ARGV...`` (same stdout, stderr and
exit code) and additionally writes ``OUT_PREFIX.bin`` (the span arrays, see
``spans.py``) and ``OUT_PREFIX.json`` (clock readings, span names and the
counters that are not spans).  Nothing under ``src/`` is changed: module
attributes and ``CycloElement`` methods are replaced at run time, after
``thetacalc.cli`` has been imported and timed.
"""

import time

T_START = time.perf_counter()

import sys  # noqa: E402

from spans import SpanRecorder  # noqa: E402

# (module, attribute, span name) of every plain function that gets a span.
FUNCTIONS = (
    ("verlinde", "verlinde_number", "verlinde.verlinde_number"),
    ("verlinde", "_distance_exponent_groups", "verlinde.groups"),
    ("verlinde", "modified_verlinde", "verlinde.modified_verlinde"),
    ("verlinde", "check_rank_level_symmetry", "verlinde.check_rank_level_symmetry"),
    ("verlinde", "float_oracle", "verlinde.float_oracle"),
    ("cyclotomic", "to_rational", "cyclotomic.to_rational"),
    ("power_duality", "det_exact", "power_duality.det_exact"),
    ("power_duality", "wedge_coefficients", "power_duality.wedge_coefficients"),
    ("power_duality", "wedge_duality_matrix", "power_duality.wedge_duality_matrix"),
    ("power_duality", "sym_duality_matrix", "power_duality.sym_duality_matrix"),
    ("power_duality", "theta_vanishes", "power_duality.theta_vanishes"),
)
# Every public function of these modules gets a span named after it.
WHOLE_MODULES = ("mukai", "elliptic_k3")


class Counters:
    """Counts taken from call results rather than from spans."""

    def __init__(self):
        self.coeff_bits_max = 0
        self.groups = 0

    def observe(self, element) -> None:
        for c in element.coeffs:
            bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def on_pow(self, args, result) -> None:
        self.observe(result)

    def on_to_rational(self, args, result) -> None:
        self.observe(args[0])

    def on_groups(self, args, result) -> None:
        self.groups += len(result)


def _replace_everywhere(modules, original, replacement) -> None:
    # Modules that did ``from .x import f`` hold their own reference to f.
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: SpanRecorder, counters: Counters):
    """Wrap the measured layers of the already imported ``thetacalc`` package.

    Modules the CLI does not import itself are imported only here, after the
    import of ``thetacalc.cli`` has been timed.
    """
    import types

    import thetacalc.cli as cli
    from thetacalc import cyclotomic, elliptic_k3, mukai, power_duality, verlinde

    layers = {
        "cyclotomic": cyclotomic,
        "verlinde": verlinde,
        "power_duality": power_duality,
        "mukai": mukai,
        "elliptic_k3": elliptic_k3,
    }
    modules = list(layers.values()) + [cli]
    hooks = {
        "cyclotomic.to_rational": counters.on_to_rational,
        "verlinde.groups": counters.on_groups,
    }
    for layer, attr, name in FUNCTIONS:
        original = getattr(layers[layer], attr)
        _replace_everywhere(modules, original, recorder.wrap(name, original, hooks.get(name)))
    for layer in WHOLE_MODULES:
        module = layers[layer]
        for attr, original in list(vars(module).items()):
            if (
                not attr.startswith("_")
                and isinstance(original, types.FunctionType)
                and original.__module__ == module.__name__
            ):
                _replace_everywhere(modules, original, recorder.wrap(f"{layer}.{attr}", original))
    element = cyclotomic.CycloElement
    mul = recorder.wrap("cyclotomic.mul", element.__mul__)
    element.__mul__ = mul
    element.__rmul__ = mul
    element.__pow__ = recorder.wrap("cyclotomic.pow", element.__pow__, counters.on_pow)
    return cli.main, verlinde.two_sin


def main() -> int:
    prefix, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    counters = Counters()
    t_import = time.perf_counter()
    import thetacalc.cli  # noqa: F401

    t_imported = time.perf_counter()
    cli_main, two_sin = install(recorder, counters)
    try:
        code = recorder.wrap("cli.main", cli_main)(argv)
        sys.stdout.flush()
    finally:
        import json

        count = recorder.write(prefix + ".bin")
        t_end = time.perf_counter()
        cache = two_sin.cache_info()
        meta = {
            "t_start": T_START,
            "t_import": t_import,
            "t_imported": t_imported,
            "t_end": t_end,
            "names": recorder.names,
            "span_count": count,
            "two_sin_hits": cache.hits,
            "two_sin_misses": cache.misses,
            "coeff_bits_max": counters.coeff_bits_max,
            "groups_count": counters.groups,
        }
        with open(prefix + ".json", "w") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
