package xpath

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mxq/internal/rostore"
	"mxq/internal/shred"
)

// TestParserNeverPanics throws token soup at the parser; it must return
// errors, not panic (the shell feeds it raw user input).
func TestParserNeverPanics(t *testing.T) {
	pieces := []string{
		"/", "//", "[", "]", "(", ")", "@", "..", ".", "*", "|", "$x",
		"and", "or", "div", "mod", "person", "text()", "node()", "::",
		"=", "!=", "<", "<=", "1", "3.14", `"str"`, "'s'", ",", "+", "-",
		"count", "ancestor", "child", "!", "$",
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(8)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
			if rng.Intn(3) == 0 {
				b.WriteByte(' ')
			}
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse(%q) panicked: %v", src, r)
				}
			}()
			Parse(src)
		}()
	}
}

// TestParseBoundsDepth: every way an expression's tree grows tall —
// parentheses, predicates, function arguments, unary minus, a chain of
// binary operators, a chain of unions, and parentheses each closed by a
// chain whose first operand is the nesting inside them — parses at half
// of maxDepth and is refused at twice it, with an error, before anything
// recurses that far.
func TestParseBoundsDepth(t *testing.T) {
	// closedByChains nests sqrt(n) parentheses and follows each ')' with
	// a chain of sqrt(n) operators: no level is deep, the tree is n tall.
	closedByChains := func(chain string) func(n int) string {
		return func(n int) string {
			k := int(math.Sqrt(float64(n)))
			return strings.Repeat("(", k) + "//a" + strings.Repeat(")"+strings.Repeat(chain, k), k)
		}
	}
	towers := map[string]func(n int) string{
		"parens":           func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) },
		"preds":            func(n int) string { return strings.Repeat("a[", n) + "1" + strings.Repeat("]", n) },
		"args":             func(n int) string { return strings.Repeat("not(", n) + "1" + strings.Repeat(")", n) },
		"unary":            func(n int) string { return strings.Repeat("-", n) + "1" },
		"operators":        func(n int) string { return strings.Repeat("1 + 2 * ", n) + "1" },
		"unions":           func(n int) string { return strings.Repeat("//a | ", n) + "//a" },
		"parens+operators": closedByChains(" + 1"),
		"parens+unions":    closedByChains(" | //a"),
	}
	for name, tower := range towers {
		if _, err := Parse(tower(maxDepth / 2)); err != nil {
			t.Errorf("%s nested %d deep: %v", name, maxDepth/2, err)
		}
		if _, err := Parse(tower(2 * maxDepth)); err == nil || !strings.Contains(err.Error(), "nests deeper than") {
			t.Errorf("%s nested %d deep: error %v, want the nesting refused", name, 2*maxDepth, err)
		}
	}
}

// TestParseBoundsTokens: an expression of ~2M one-byte tokens is refused
// by the lexer before its token slice grows past maxTokens. Lexed whole,
// those tokens cost 64 MB; the refusal allocates a few MB at most.
func TestParseBoundsTokens(t *testing.T) {
	src := strings.Repeat("1+", 1<<20) + "1"
	// concat(1,1,…,1) is two levels tall at any length; this one is
	// maxTokens-1 tokens with the end of input.
	if _, err := Parse("concat(" + strings.Repeat("1,", maxTokens/2-3) + "1)"); err != nil {
		t.Fatalf("%d tokens: %.200v", maxTokens-1, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Parse(src)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "tokens") {
		t.Fatalf("~2M tokens: error %.200v, want the token count refused", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("refusing ~2M tokens allocated %d bytes, want under 16 MiB", alloc)
	}
}

// TestParseStringRoundTrip: parsing the String() rendering of a valid
// expression yields an expression with the same rendering (a normal-form
// fixed point).
func TestParseStringRoundTrip(t *testing.T) {
	queries := []string{
		`/site/people/person[@id="p0"]/name/text()`,
		`//open_auction[bidder[1]/increase * 2 <= bidder[last()]/increase]`,
		`count(//item) + sum(//price) div 2`,
		`//a | //b[. = "x"]`,
		`//person[not(homepage) and profile/@income > 50000]`,
		`ancestor-or-self::*[2]/following-sibling::node()`,
		`(//a)[3]/.././/text()`,
		`-3 + -x`,
	}
	for _, q := range queries {
		e1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		norm := e1.String()
		e2, err := Parse(norm)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", norm, q, err)
		}
		if e2.String() != norm {
			t.Fatalf("normal form not fixed:\n1: %s\n2: %s", norm, e2.String())
		}
	}
}

// TestEvaluatorNeverPanicsOnValidQueries evaluates every round-trip
// query against a real document; errors are fine, panics are not.
func TestEvaluatorNeverPanicsOnValidQueries(t *testing.T) {
	tr, err := shred.Parse(strings.NewReader(
		`<site><people><person id="p0"><name>A</name><homepage>h</homepage>`+
			`<profile income="60000"/></person></people>`+
			`<open_auction><bidder><increase>2</increase></bidder></open_auction>`+
			`<item><price>5</price></item><a/><b>x</b></site>`), shred.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := rostore.Build(tr)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`/site/people/person[@id="p0"]/name/text()`,
		`//open_auction[bidder[1]/increase * 2 <= bidder[last()]/increase]`,
		`count(//item) + sum(//price) div 2`,
		`//a | //b[. = "x"]`,
		`//person[not(homepage) and profile/@income > 50000]`,
		`ancestor-or-self::*[2]/following-sibling::node()`,
		`(//a)[3]/.././/text()`,
		`//person/@*`,
	}
	for _, q := range queries {
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Eval(%q) panicked: %v", q, r)
				}
			}()
			e.Eval(v)
		}()
	}
}
