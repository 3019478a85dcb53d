package xpath

import (
	"strings"
	"testing"

	"mxq/internal/rostore"
	"mxq/internal/shred"
	"mxq/internal/xenc"
)

func smallView(t *testing.T) xenc.DocView {
	t.Helper()
	tr, err := shred.Parse(strings.NewReader(`<r><a>12</a><a>7</a><b> padded </b></r>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func evalStr(t *testing.T, v xenc.DocView, q string) string {
	t.Helper()
	val, err := MustParse(q).Eval(v)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return StringOf(v, val)
}

func TestTranslate(t *testing.T) {
	v := smallView(t)
	cases := [][2]string{
		{`translate("bar", "abc", "ABC")`, "BAr"},
		{`translate("--aaa--", "abc-", "ABC")`, "AAA"}, // '-' dropped
		{`translate("hello", "", "xyz")`, "hello"},     // nothing mapped
		{`translate("aab", "aa", "xy")`, "xxb"},        // first mapping wins
	}
	for _, c := range cases {
		if got := evalStr(t, v, c[0]); got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
	if _, err := MustParse(`translate("a", "b")`).Eval(v); err == nil {
		t.Error("translate with 2 args accepted")
	}
}

func TestContextDependentFunctions(t *testing.T) {
	v := smallView(t)
	// string() and number() with no argument use the context node.
	ns, err := MustParse(`//a[number() > 10]`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || StringValue(v, ns[0]) != "12" {
		t.Fatalf("number() context filter = %v", ns)
	}
	ns, err = MustParse(`//a[string() = "7"]`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("string() context filter = %v", ns)
	}
	ns, err = MustParse(`//b[string-length() = 8]`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("string-length() context filter = %v", ns)
	}
	ns, err = MustParse(`//b[normalize-space() = "padded"]`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 {
		t.Fatalf("normalize-space() context filter = %v", ns)
	}
}

func TestNameFunctionVariants(t *testing.T) {
	v := smallView(t)
	if got := evalStr(t, v, `name(/r)`); got != "r" {
		t.Errorf("name(/r) = %q", got)
	}
	if got := evalStr(t, v, `name(//nosuch)`); got != "" {
		t.Errorf("name(empty) = %q", got)
	}
	if got := evalStr(t, v, `name(//a/text())`); got != "" {
		t.Errorf("name(text) = %q", got)
	}
}

func TestSumOverNodes(t *testing.T) {
	v := smallView(t)
	if got := evalStr(t, v, `string(sum(//a))`); got != "19" {
		t.Errorf("sum(//a) = %q", got)
	}
}

func TestSubstringClamping(t *testing.T) {
	v := smallView(t)
	cases := [][2]string{
		{`substring("hello", 0)`, "hello"},
		{`substring("hello", 4)`, "lo"},
		{`substring("hello", 9)`, ""},
		{`substring("hello", 2, 100)`, "ello"},
		{`substring("héllo", 2, 2)`, "él"}, // rune-based
	}
	for _, c := range cases {
		if got := evalStr(t, v, c[0]); got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestSpecExamples pins every worked example of XPath 1.0 §4.2 (string
// functions) and the cases §4.4 spells out for round(): ties go towards
// positive infinity, NaN and the infinities pass through, and a zero
// result keeps a negative argument's sign (shown by dividing by it).
func TestSpecExamples(t *testing.T) {
	v := smallView(t)
	cases := [][2]string{
		{`substring-before("1999/04/01", "/")`, "1999"},
		{`substring-after("1999/04/01", "/")`, "04/01"},
		{`substring-after("1999/04/01", "19")`, "99/04/01"},
		{`substring("12345", 2, 3)`, "234"},
		{`substring("12345", 2)`, "2345"},
		{`substring("12345", 1.5, 2.6)`, "234"},
		{`substring("12345", 0, 3)`, "12"},
		{`substring("12345", 0 div 0, 3)`, ""},
		{`substring("12345", 1, 0 div 0)`, ""},
		{`substring("12345", -42, 1 div 0)`, "12345"},
		{`substring("12345", -1 div 0, 1 div 0)`, ""},
		{`substring("12345", 2, 1 div 0)`, "2345"},
		{`substring("12345", -0.5, 2)`, "1"},
		{`substring("12345", 0 div 0)`, ""},
		{`substring("12345", -1 div 0)`, "12345"},
		{`translate("bar", "abc", "ABC")`, "BAr"},
		{`translate("--aaa--", "abc-", "ABC")`, "AAA"},
		{`round(2.5)`, "3"},
		{`round(1.5)`, "2"},
		{`round(2.4)`, "2"},
		{`round(-2.5)`, "-2"},
		{`round(-1.5)`, "-1"},
		{`round(-2.6)`, "-3"},
		{`round(-0.5)`, "0"},
		{`1 div round(-0.5)`, "-Infinity"},
		{`1 div round(-0.2)`, "-Infinity"},
		{`1 div round(-0)`, "-Infinity"},
		{`1 div round(0)`, "Infinity"},
		{`1 div round(0.4)`, "Infinity"},
		{`round(0.49999999999999994)`, "0"},
		{`round(4503599627370497) = 4503599627370497`, "true"}, // 2^52+1: x + 0.5 would tie to even
		{`round(0 div 0)`, "NaN"},
		{`round(1 div 0)`, "Infinity"},
		{`round(-1 div 0)`, "-Infinity"},
	}
	for _, c := range cases {
		if got := evalStr(t, v, c[0]); got != c[1] {
			t.Errorf("%s = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestUnionRequiresNodeSets(t *testing.T) {
	v := smallView(t)
	if _, err := MustParse(`//a | 3`).Eval(v); err == nil {
		t.Error("union with number accepted")
	}
}

func TestPathOverNonNodeSetErrors(t *testing.T) {
	v := smallView(t)
	for _, q := range []string{`(1)/a`, `("x")[1]/b`} {
		e, err := Parse(q)
		if err != nil {
			continue
		}
		if _, err := e.Eval(v); err == nil {
			t.Errorf("%s evaluated without error", q)
		}
	}
}

func TestFilterOnParenthesizedPath(t *testing.T) {
	v := smallView(t)
	// (//a)[2] selects the second a overall.
	ns, err := MustParse(`(//a)[2]`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || StringValue(v, ns[0]) != "7" {
		t.Fatalf("(//a)[2] = %v", ns)
	}
	// Path continuation after a filter.
	ns, err = MustParse(`(//a)[1]/text()`).Select(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || StringValue(v, ns[0]) != "12" {
		t.Fatalf("(//a)[1]/text() = %v", ns)
	}
}
