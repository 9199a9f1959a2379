"""Tests for the MiniJS case study (S6)."""

import pytest

from repro.jsvm import JSRuntime
from repro.jsvm.frontend import JSCompileError, compile_js
from repro.jsvm.shapes import NameTable, ShapeTable
from repro.jsvm.values import (
    IC_FAIL,
    VALUE_FALSE,
    VALUE_NULL,
    VALUE_TRUE,
    VALUE_UNDEFINED,
    box_bool,
    box_double,
    box_function,
    box_object,
    describe,
    is_double,
    truthy,
    unbox_double,
)
from repro.jsvm.workloads import WORKLOADS


class TestValues:
    @pytest.mark.parametrize("value", [0.0, 1.5, -2.25, 1e300, -0.0])
    def test_double_roundtrip(self, value):
        assert unbox_double(box_double(value)) == value
        assert is_double(box_double(value))

    def test_boxed_values_are_not_doubles(self):
        for boxed in (VALUE_TRUE, VALUE_FALSE, VALUE_NULL,
                      VALUE_UNDEFINED, box_object(0x1000),
                      box_function(3)):
            assert not is_double(boxed)

    def test_ic_fail_is_not_a_value(self):
        assert not is_double(IC_FAIL)
        assert IC_FAIL != box_double(float("nan"))

    def test_truthiness(self):
        assert truthy(VALUE_TRUE)
        assert not truthy(VALUE_FALSE)
        assert not truthy(VALUE_NULL)
        assert not truthy(VALUE_UNDEFINED)
        assert not truthy(box_double(0.0))
        assert not truthy(box_double(float("nan")))
        assert truthy(box_double(3.5))
        assert truthy(box_object(0x40))

    def test_describe(self):
        assert describe(box_double(3.0)) == "3"
        assert describe(VALUE_TRUE) == "true"
        assert describe(box_bool(False)) == "false"
        assert describe(VALUE_NULL) == "null"
        assert describe(box_double(float("-inf"))) == "-inf"
        assert describe(box_double(float("nan"))) == "nan"


class TestShapes:
    def test_literal_shapes_are_canonical(self):
        shapes = ShapeTable()
        a = shapes.shape_for_literal((1, 2))
        b = shapes.shape_for_literal((1, 2))
        c = shapes.shape_for_literal((2, 1))
        assert a == b
        assert a != c

    def test_transition_chain(self):
        shapes = ShapeTable()
        s0 = shapes.empty
        s1 = shapes.transition(s0, 5)
        s2 = shapes.transition(s1, 9)
        assert shapes.lookup(s2, 5) == 0
        assert shapes.lookup(s2, 9) == 1
        assert shapes.transition(s0, 5) == s1  # cached

    def test_name_interning(self):
        names = NameTable()
        assert names.intern("x") == names.intern("x")
        assert names.intern("x") != names.intern("y")
        assert names.name_of(names.intern("x")) == "x"


class TestFrontend:
    def test_function_collection_and_this(self):
        compiled = compile_js("""
function m() { return this.v; }
var o = {v: 7, m: m};
print(o.m());
""")
        assert [f.name for f in compiled.functions] == ["main", "m"]
        assert compiled.functions[1].num_params == 1  # implicit this

    def test_undeclared_variable(self):
        with pytest.raises(JSCompileError, match="undeclared"):
            compile_js("print(zzz);")

    def test_break_outside_loop(self):
        with pytest.raises(JSCompileError, match="break"):
            compile_js("break;")

    def test_stack_depth_tracked(self):
        compiled = compile_js("print(1 + 2 * (3 + 4));")
        assert compiled.functions[0].max_stack >= 3


def run_js(source, config="interp_ic"):
    rt = JSRuntime(source, config)
    rt.run()
    return rt.printed


class TestEngineSemantics:
    @pytest.mark.parametrize("config", ["noic", "interp_ic"])
    def test_arithmetic(self, config):
        assert run_js("print(1 + 2 * 3);", config) == ["7"]
        assert run_js("print(7 % 3);", config) == ["1"]
        assert run_js("print(10 / 4);", config) == ["2.5"]
        assert run_js("print(-3 + 1);", config) == ["-2"]

    @pytest.mark.parametrize("config", ["noic", "interp_ic"])
    def test_logic_and_control(self, config):
        assert run_js("print(1 < 2 && 3 < 4);", config) == ["true"]
        assert run_js("print(!0);", config) == ["true"]
        src = """
var total = 0;
for (var i = 0; i < 10; i++) {
  if (i % 2 == 0) { total = total + i; }
}
print(total);
"""
        assert run_js(src, config) == ["20"]

    def test_objects_and_methods(self):
        src = """
function getX() { return this.x; }
var p = {x: 42, getX: getX};
print(p.getX());
p.x = 7;
print(p.getX());
"""
        assert run_js(src) == ["42", "7"]

    def test_shape_transition_at_runtime(self):
        src = """
var o = {a: 1};
o.b = 2;
print(o.a + o.b);
"""
        assert run_js(src) == ["3"]

    def test_missing_property_is_undefined(self):
        assert run_js("var o = {a: 1}; print(o.nope);") == ["undefined"]

    def test_arrays_grow_by_append(self):
        src = """
var a = [1, 2];
a[2] = 3;
print(a.length3 == undefined);
print(a[0] + a[1] + a[2]);
"""
        assert run_js("var a = [1, 2]; a[2] = 3; print(a[2]);") == ["3"]

    def test_array_oob_traps(self):
        with pytest.raises(RuntimeError, match="error #5"):
            run_js("var a = [1]; print(a[5]);")

    def test_call_of_non_function_traps(self):
        with pytest.raises(RuntimeError, match="error #3"):
            run_js("var f = 3; f(1);")

    def test_function_values(self):
        src = """
function inc(ignored, x) { return x + 1; }
var f = inc;
print(f(0, 41));
"""
        assert run_js(src) == ["42"]


class TestICBehaviour:
    def test_ics_attach_and_hit(self):
        src = """
function get(o) { return o.v; }
var o = {v: 5};
var total = 0;
for (var i = 0; i < 20; i++) { total = total + get(o); }
print(total);
"""
        rt = JSRuntime(src, "interp_ic")
        rt.run()
        assert rt.printed == ["100"]
        # One slow call attaches the stub; the rest hit the IC.
        assert rt.slow_getprop_calls <= 2
        assert rt.ic_attaches >= 1

    def test_noic_always_takes_slow_path(self):
        src = """
function get(o) { return o.v; }
var o = {v: 5};
var total = 0;
for (var i = 0; i < 20; i++) { total = total + get(o); }
print(total);
"""
        rt = JSRuntime(src, "noic")
        rt.run()
        assert rt.slow_getprop_calls >= 20

    def test_polymorphic_site_chains_stubs(self):
        src = """
function get(o) { return o.v; }
var a = {v: 1};
var b = {v: 2, w: 3};
var total = 0;
for (var i = 0; i < 10; i++) { total = total + get(a) + get(b); }
print(total);
"""
        rt = JSRuntime(src, "interp_ic")
        rt.run()
        assert rt.printed == ["30"]
        assert rt.ic_attaches >= 2  # one stub per shape on the chain


class TestAotConfigs:
    """Spot checks; the four configurations agree on all 13 programs,
    and AOT cuts fuel, in ``tests/test_paper_figures.py`` (Fig. 11)."""

    @pytest.mark.parametrize("name", ["crypto", "splay"])
    def test_all_configs_agree(self, name):
        outputs = {}
        for config in ("noic", "interp_ic", "wevaled", "wevaled_state"):
            rt = JSRuntime(WORKLOADS[name], config)
            rt.run()
            outputs[config] = tuple(rt.printed)
        assert len(set(outputs.values())) == 1

    def test_aot_appends_functions_and_patches_spec(self):
        rt = JSRuntime("function f(){ return 1; } print(f());",
                       "wevaled")
        rt.aot_compile()
        vm = rt.compiler.resume()
        for func in rt.compiled.functions:
            spec = vm.load_u64(rt.func_addrs[func.index] + 64)
            assert spec != 0

    @pytest.mark.parametrize("backend", ["vm", "py"])
    @pytest.mark.parametrize("plan_name", ["always", "once"])
    def test_contained_compile_failure_falls_back_to_generic(self, plan_name,
                                                             backend):
        """A compile-path failure costs speed, never results: when
        main's own specialization fails (request 0) its ``spec`` slot
        stays 0 and ``run()`` must enter it generic, as guest calls do."""
        from repro.core.specialize import SpecializeOptions
        from repro.pipeline.faults import FaultPlan
        src = ("function sq(x){ return x * x; } var s = 0; var i = 0;"
               "while (i < 5) { s = s + sq(i); i = i + 1; } print(s);")
        plan = (FaultPlan.always("specialize") if plan_name == "always"
                else FaultPlan.once("specialize", 0))
        reference = JSRuntime(src, "interp_ic")
        reference.run()
        rt = JSRuntime(src, "wevaled_state",
                       options=SpecializeOptions(backend=backend,
                                                 fault_plan=plan))
        rt.run()
        assert rt.printed == reference.printed == ["30"]
        assert plan.fired["specialize"] >= 1
        assert rt.compiler.processed[0].error is not None

    def test_specialized_run_reduces_fuel(self):
        src = WORKLOADS["crypto"]
        base = JSRuntime(src, "interp_ic")
        vm_base = base.run()
        spec = JSRuntime(src, "wevaled_state")
        vm_spec = spec.run()
        assert spec.printed == base.printed
        assert vm_spec.stats.fuel < vm_base.stats.fuel / 2
