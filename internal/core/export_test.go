package core

// XMarkStore builds an XMark store for the tests outside the package.
var XMarkStore = xmarkStore

// Chunks returns the identities of the page and node chunks s holds, so
// a test outside the package can count the chunks one version holds and
// another does not: a chunk is copied, never rewritten, once a second
// store shares it.
func Chunks(s *Store) (pages, nodes map[any]bool) {
	pages, nodes = map[any]bool{}, map[any]bool{}
	for _, p := range s.pages {
		pages[p] = true
	}
	for _, c := range s.nodes {
		nodes[c] = true
	}
	return pages, nodes
}
