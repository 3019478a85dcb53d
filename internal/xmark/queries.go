package xmark

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mxq/internal/serialize"
	"mxq/internal/staircase"
	"mxq/internal/xenc"
	"mxq/internal/xpath"
)

// Query is one XMark benchmark query, hand-compiled to engine calls the
// way Pathfinder compiles XQuery to MIL plans. Holding the plan constant
// across the read-only and the updatable schema is exactly the control of
// the Figure 9 experiment: only the storage layer differs.
type Query struct {
	Num  int
	Desc string
	Run  func(v xenc.DocView) ([]string, error)
}

// Queries holds Q1–Q20 in order.
var Queries = []Query{
	{1, "name of person0 (point query on an attribute)", q1},
	{2, "initial increase of all open auctions (positional predicate)", q2},
	{3, "auctions whose first increase doubled (positional + arithmetic)", q3},
	{4, "auctions where person1 bid before person2 (order test)", q4},
	{5, "number of sold items with price >= 40 (aggregate)", q5},
	{6, "items per region (structural aggregate)", q6},
	{7, "pieces of prose (multi-path count)", q7},
	{8, "items bought per person (value join)", q8},
	{9, "European items bought per person (double join)", q9},
	{10, "persons grouped by interest (grouping + reconstruction)", q10},
	{11, "open auctions affordable per person (value join on income)", q11},
	{12, "as Q11 for the well-off (filtered value join)", q12},
	{13, "Australian items with descriptions (reconstruction)", q13},
	{14, "items whose description mentions gold (full-text contains)", q14},
	{15, "keywords in nested annotation markup (long path)", q15},
	{16, "sellers of auctions with nested markup (long path existence)", q16},
	{17, "persons without a homepage (negation)", q17},
	{18, "converted auction reserves (numeric function)", q18},
	{19, "items ordered by location (sort)", q19},
	{20, "persons by income bracket (range aggregate)", q20},
}

// RunAll executes every query and returns the row counts, as a smoke
// check that all twenty run on a given document.
func RunAll(v xenc.DocView) ([20]int, error) {
	var counts [20]int
	for i, q := range Queries {
		rows, err := q.Run(v)
		if err != nil {
			return counts, fmt.Errorf("xmark Q%d: %w", q.Num, err)
		}
		counts[i] = len(rows)
	}
	return counts, nil
}

// --- plan helpers ------------------------------------------------------------

// doc caches the interned name ids a plan needs. Lookup of a name absent
// from the document yields -2, which matches nothing.
type doc struct {
	v xenc.DocView
}

func (d doc) name(s string) int32 {
	if id, ok := d.v.Names().Lookup(s); ok {
		return id
	}
	return -2
}

// children returns the direct element children of p named nameID, using
// the staircase sibling hops.
func (d doc) children(p xenc.Pre, nameID int32) []xenc.Pre {
	return staircase.EvalAxis(d.v, []xenc.Pre{p}, staircase.AxisChild, staircase.Element(nameID))
}

// child returns the first element child named nameID, or NoPre.
func (d doc) child(p xenc.Pre, nameID int32) xenc.Pre {
	return staircase.Nth(d.v, p, staircase.AxisChild, staircase.Element(nameID), 1)
}

// text returns the string-value of the node (concatenated descendant
// text).
func (d doc) text(p xenc.Pre) string {
	if p == xenc.NoPre {
		return ""
	}
	return xpath.StringValue(d.v, xpath.ElemNode(p))
}

// attr returns the attribute value by name id.
func (d doc) attr(p xenc.Pre, nameID int32) string {
	s, _ := d.v.AttrValue(p, nameID)
	return s
}

// number parses a decimal, NaN-free (0 on failure — XMark data is clean).
func number(s string) float64 {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0
	}
	return f
}

// path compiles an XPath once (plans are package-level).
func path(src string) *xpath.Expr { return xpath.MustParse(src) }

var (
	pPersons       = path(`/site/people/person`)
	pOpenAuctions  = path(`/site/open_auctions/open_auction`)
	pClosed        = path(`/site/closed_auctions/closed_auction`)
	pRegions       = path(`/site/regions/*`)
	pQ1            = path(`/site/people/person[@id="person0"]/name/text()`)
	pQ2            = path(`/site/open_auctions/open_auction/bidder[1]/increase/text()`)
	pQ7Description = path(`//description`)
	pQ7Annotation  = path(`//annotation`)
	pQ7Email       = path(`//emailaddress`)
	pQ13           = path(`/site/regions/australia/item`)
	pQ14           = path(`//item`)
	pQ15           = path(`/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()`)
	pQ16           = path(`/site/closed_auctions/closed_auction[annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword]`)
	pQ17           = path(`/site/people/person[not(homepage)]/name/text()`)
	pQ9Europe      = path(`/site/regions/europe/item`)
)

func selPres(e *xpath.Expr, v xenc.DocView) ([]xenc.Pre, error) {
	ns, err := e.Select(v)
	if err != nil {
		return nil, err
	}
	return ns.Pres(), nil
}

// --- the twenty queries -------------------------------------------------------

// Q1: Return the name of the person with ID "person0".
func q1(v xenc.DocView) ([]string, error) {
	ns, err := pQ1.Select(v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(ns))
	for _, n := range ns {
		rows = append(rows, xpath.StringValue(v, n))
	}
	return rows, nil
}

// Q2: Return the initial increases of all open auctions.
func q2(v xenc.DocView) ([]string, error) {
	ns, err := pQ2.Select(v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(ns))
	for _, n := range ns {
		rows = append(rows, "<increase>"+xpath.StringValue(v, n)+"</increase>")
	}
	return rows, nil
}

// Q3: Return the IDs of open auctions whose current increase is at least
// twice as high as the initial increase.
func q3(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nBidder, nIncrease, nID := d.name("bidder"), d.name("increase"), d.name("id")
	auctions, err := selPres(pOpenAuctions, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, a := range auctions {
		bidders := d.children(a, nBidder)
		if len(bidders) < 2 {
			continue
		}
		first := number(d.text(d.child(bidders[0], nIncrease)))
		last := number(d.text(d.child(bidders[len(bidders)-1], nIncrease)))
		if first*2 <= last {
			rows = append(rows, fmt.Sprintf(`<increase id=%q first="%.2f" last="%.2f"/>`, d.attr(a, nID), first, last))
		}
	}
	return rows, nil
}

// Q4: List the reserves of open auctions where person1 bid before
// person2.
func q4(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nBidder, nPersonref, nPerson, nInitial := d.name("bidder"), d.name("personref"), d.name("person"), d.name("initial")
	auctions, err := selPres(pOpenAuctions, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, a := range auctions {
		sawFirst := false
		hit := false
		for _, b := range d.children(a, nBidder) {
			ref := d.child(b, nPersonref)
			if ref == xenc.NoPre {
				continue
			}
			switch d.attr(ref, nPerson) {
			case "person1":
				sawFirst = true
			case "person2":
				if sawFirst {
					hit = true
				}
			}
		}
		if hit {
			rows = append(rows, "<history>"+d.text(d.child(a, nInitial))+"</history>")
		}
	}
	return rows, nil
}

// Q5: How many sold items cost more than 40?
func q5(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nPrice := d.name("price")
	closed, err := selPres(pClosed, v)
	if err != nil {
		return nil, err
	}
	count := 0
	for _, c := range closed {
		if number(d.text(d.child(c, nPrice))) >= 40 {
			count++
		}
	}
	return []string{strconv.Itoa(count)}, nil
}

// Q6: How many items are listed on all continents?
func q6(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nItem := d.name("item")
	regions, err := selPres(pRegions, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, r := range regions {
		items := staircase.EvalAxis(v, []xenc.Pre{r}, staircase.AxisDescendant, staircase.Element(nItem))
		rows = append(rows, fmt.Sprintf("%s %d", v.Names().Name(v.Name(r)), len(items)))
	}
	return rows, nil
}

// Q7: How many pieces of prose are in our database?
func q7(v xenc.DocView) ([]string, error) {
	total := 0
	for _, p := range []*xpath.Expr{pQ7Description, pQ7Annotation, pQ7Email} {
		ns, err := p.Select(v)
		if err != nil {
			return nil, err
		}
		total += len(ns)
	}
	return []string{strconv.Itoa(total)}, nil
}

// Q8: List the names of persons and the number of items they bought.
func q8(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nBuyer, nPerson, nID, nName := d.name("buyer"), d.name("person"), d.name("id"), d.name("name")
	closed, err := selPres(pClosed, v)
	if err != nil {
		return nil, err
	}
	bought := make(map[string]int)
	for _, c := range closed {
		if b := d.child(c, nBuyer); b != xenc.NoPre {
			bought[d.attr(b, nPerson)]++
		}
	}
	persons, err := selPres(pPersons, v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(persons))
	for _, p := range persons {
		rows = append(rows, fmt.Sprintf(`<item person=%q>%d</item>`,
			d.text(d.child(p, nName)), bought[d.attr(p, nID)]))
	}
	return rows, nil
}

// Q9: List the names of persons and the names of the items they bought
// in Europe (join person ⋈ closed_auction ⋈ item).
func q9(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nBuyer, nPerson, nID, nName := d.name("buyer"), d.name("person"), d.name("id"), d.name("name")
	nItemref, nItem := d.name("itemref"), d.name("item")
	// Europe items by id.
	europe, err := selPres(pQ9Europe, v)
	if err != nil {
		return nil, err
	}
	itemName := make(map[string]string, len(europe))
	for _, it := range europe {
		itemName[d.attr(it, nID)] = d.text(d.child(it, nName))
	}
	closed, err := selPres(pClosed, v)
	if err != nil {
		return nil, err
	}
	byBuyer := make(map[string][]string)
	for _, c := range closed {
		b, ref := d.child(c, nBuyer), d.child(c, nItemref)
		if b == xenc.NoPre || ref == xenc.NoPre {
			continue
		}
		if name, ok := itemName[d.attr(ref, nItem)]; ok {
			buyer := d.attr(b, nPerson)
			byBuyer[buyer] = append(byBuyer[buyer], name)
		}
	}
	persons, err := selPres(pPersons, v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(persons))
	for _, p := range persons {
		items := byBuyer[d.attr(p, nID)]
		rows = append(rows, fmt.Sprintf(`<person name=%q>%s</person>`,
			d.text(d.child(p, nName)), strings.Join(items, ", ")))
	}
	return rows, nil
}

// Q10: List all persons according to their interest.
func q10(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nProfile, nInterest, nCategory := d.name("profile"), d.name("interest"), d.name("category")
	nName, nEmail := d.name("name"), d.name("emailaddress")
	nIncome := d.name("income")
	persons, err := selPres(pPersons, v)
	if err != nil {
		return nil, err
	}
	grouped := make(map[string][]string)
	var cats []string
	for _, p := range persons {
		profile := d.child(p, nProfile)
		if profile == xenc.NoPre {
			continue
		}
		// Reconstruct the person record the query copies out.
		record := fmt.Sprintf("<personal><name>%s</name><email>%s</email><income>%s</income></personal>",
			d.text(d.child(p, nName)), d.text(d.child(p, nEmail)), d.attr(profile, nIncome))
		for _, in := range d.children(profile, nInterest) {
			cat := d.attr(in, nCategory)
			if _, seen := grouped[cat]; !seen {
				cats = append(cats, cat)
			}
			grouped[cat] = append(grouped[cat], record)
		}
	}
	sort.Strings(cats)
	rows := make([]string, 0, len(cats))
	for _, c := range cats {
		rows = append(rows, fmt.Sprintf("<categorie id=%q>%s</categorie>", c, strings.Join(grouped[c], "")))
	}
	return rows, nil
}

// Q11: For each person, the number of open auctions whose initial bid
// does not exceed 0.02% of the person's income.
func q11(v xenc.DocView) ([]string, error) {
	return incomeJoin(v, 0)
}

// Q12: As Q11, restricted to persons with income above 50000.
func q12(v xenc.DocView) ([]string, error) {
	return incomeJoin(v, 50000)
}

func incomeJoin(v xenc.DocView, minIncome float64) ([]string, error) {
	d := doc{v}
	nProfile, nIncome, nName, nInitial := d.name("profile"), d.name("income"), d.name("name"), d.name("initial")
	auctions, err := selPres(pOpenAuctions, v)
	if err != nil {
		return nil, err
	}
	initials := make([]float64, 0, len(auctions))
	for _, a := range auctions {
		initials = append(initials, number(d.text(d.child(a, nInitial))))
	}
	persons, err := selPres(pPersons, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, p := range persons {
		profile := d.child(p, nProfile)
		if profile == xenc.NoPre {
			continue
		}
		income := number(d.attr(profile, nIncome))
		if income <= minIncome {
			continue
		}
		// The deliberate theta-join of XMark: no index applies.
		count := 0
		for _, init := range initials {
			if init < income*0.0002 {
				count++
			}
		}
		rows = append(rows, fmt.Sprintf(`<items name=%q>%d</items>`, d.text(d.child(p, nName)), count))
	}
	return rows, nil
}

// Q13: List the names of items registered in Australia along with their
// descriptions.
func q13(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nName, nDescription := d.name("name"), d.name("description")
	items, err := selPres(pQ13, v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(items))
	for _, it := range items {
		desc := ""
		if dn := d.child(it, nDescription); dn != xenc.NoPre {
			s, err := serialize.String(v, dn, serialize.Options{})
			if err != nil {
				return nil, err
			}
			desc = s
		}
		rows = append(rows, fmt.Sprintf(`<item name=%q>%s</item>`, d.text(d.child(it, nName)), desc))
	}
	return rows, nil
}

// Q14: Return the names of all items whose description contains the word
// "gold".
func q14(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nName, nDescription := d.name("name"), d.name("description")
	items, err := selPres(pQ14, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, it := range items {
		if dn := d.child(it, nDescription); dn != xenc.NoPre && strings.Contains(d.text(dn), "gold") {
			rows = append(rows, d.text(d.child(it, nName)))
		}
	}
	return rows, nil
}

// Q15: Print the keywords in emphasis in annotations of closed auctions.
func q15(v xenc.DocView) ([]string, error) {
	ns, err := pQ15.Select(v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(ns))
	for _, n := range ns {
		rows = append(rows, "<text>"+xpath.StringValue(v, n)+"</text>")
	}
	return rows, nil
}

// Q16: Return the sellers of auctions that have one or more keywords in
// emphasis.
func q16(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nSeller, nPerson := d.name("seller"), d.name("person")
	auctions, err := selPres(pQ16, v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(auctions))
	for _, a := range auctions {
		if s := d.child(a, nSeller); s != xenc.NoPre {
			rows = append(rows, fmt.Sprintf(`<person id=%q/>`, d.attr(s, nPerson)))
		}
	}
	return rows, nil
}

// Q17: Which persons don't have a homepage?
func q17(v xenc.DocView) ([]string, error) {
	ns, err := pQ17.Select(v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(ns))
	for _, n := range ns {
		rows = append(rows, "<person name="+strconv.Quote(xpath.StringValue(v, n))+"/>")
	}
	return rows, nil
}

// Q18: Convert the currency of the reserve of all open auctions.
func q18(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nReserve := d.name("reserve")
	auctions, err := selPres(pOpenAuctions, v)
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, a := range auctions {
		if r := d.child(a, nReserve); r != xenc.NoPre {
			rows = append(rows, fmt.Sprintf("%.2f", number(d.text(r))*2.20371))
		}
	}
	return rows, nil
}

// Q19: Give an alphabetically ordered list of all items along with their
// location.
func q19(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nName, nLocation := d.name("name"), d.name("location")
	items, err := selPres(pQ14, v)
	if err != nil {
		return nil, err
	}
	rows := make([]string, 0, len(items))
	for _, it := range items {
		rows = append(rows, fmt.Sprintf(`<item name=%q>%s</item>`,
			d.text(d.child(it, nName)), d.text(d.child(it, nLocation))))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i] < rows[j] })
	return rows, nil
}

// Q20: Group customers by their income.
func q20(v xenc.DocView) ([]string, error) {
	d := doc{v}
	nProfile, nIncome := d.name("profile"), d.name("income")
	persons, err := selPres(pPersons, v)
	if err != nil {
		return nil, err
	}
	var high, mid, low, none int
	for _, p := range persons {
		profile := d.child(p, nProfile)
		if profile == xenc.NoPre {
			none++
			continue
		}
		val, ok := v.AttrValue(profile, nIncome)
		if !ok {
			none++
			continue
		}
		switch income := number(val); {
		case income >= 100000:
			high++
		case income >= 30000:
			mid++
		default:
			low++
		}
	}
	return []string{
		fmt.Sprintf("<preferred>%d</preferred>", high),
		fmt.Sprintf("<standard>%d</standard>", mid),
		fmt.Sprintf("<challenge>%d</challenge>", low),
		fmt.Sprintf("<na>%d</na>", none),
	}, nil
}
