package core

import "mxq/internal/xenc"

// CompactDictionaries rebuilds the shared QNamePool so it holds exactly
// the names referenced by this store's live tuples and attributes,
// dropping names leaked by aborted transactions (which intern names into
// the shared pool before the abort discards the column data that would
// have referenced them). It is an offline maintenance pass the paper's
// append-only scheme calls for, run under exclusive access. Attribute
// values are stored inline (see the package doc), so they cannot leak.
//
// Node ids, pre ranks and the physical page layout are untouched — only
// name ids change, and every column that stores one (the name column and
// the attribute refs) is rewritten through the copy-on-write hooks. Live
// snapshots are therefore never disturbed: they keep their references to
// the old chunks and the old pool, which stay internally consistent until
// the last snapshot is released. The caller must hold exclusive write
// access to s (the transaction manager's CompactDictionaries takes the
// global write lock).
//
// It returns the number of dropped names; a second pass immediately
// after always drops 0.
func (s *Store) CompactDictionaries() (namesDropped int) {
	oldQN := s.qn
	nameUsed := make([]bool, oldQN.Len())

	// Scan the live references: the name column of used tuples, and the
	// attribute names.
	for _, pg := range s.pages {
		for o := int32(0); o < s.pageSize; o++ {
			if pg.level[o] == xenc.LevelUnused {
				continue
			}
			if n := pg.name[o]; n != xenc.NoName {
				nameUsed[n] = true
			}
		}
	}
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		for _, r := range s.attrRefs(id) {
			nameUsed[r.name] = true
		}
	}

	// Rebuild the pool with only the referenced names, preserving
	// relative order, and record the old→new id map.
	newQN := xenc.NewQNamePool()
	nameMap := make([]int32, len(nameUsed))
	for id := range nameUsed {
		if nameUsed[id] {
			nameMap[id] = newQN.Intern(oldQN.Name(int32(id)))
		} else {
			nameMap[id] = xenc.NoName
			namesDropped++
		}
	}
	if namesDropped == 0 {
		return 0
	}

	// Rewrite the name column. Pages on which every kept id maps to
	// itself are skipped, so chunks shared with snapshots are only
	// copied when an id actually moves.
	for pg := range s.pages {
		p := s.pages[pg]
		moved := false
		for o := int32(0); o < s.pageSize && !moved; o++ {
			if p.level[o] == xenc.LevelUnused {
				continue
			}
			if n := p.name[o]; n != xenc.NoName && nameMap[n] != n {
				moved = true
			}
		}
		if !moved {
			continue
		}
		wp := s.dirtyPage(int32(pg))
		for o := int32(0); o < s.pageSize; o++ {
			if wp.level[o] == xenc.LevelUnused {
				continue
			}
			if n := wp.name[o]; n != xenc.NoName {
				wp.name[o] = nameMap[n]
			}
		}
	}

	// Rewrite the attribute names. Attr slices may be shared with
	// snapshots, so changed ones are replaced, never mutated in place.
	for id := xenc.NodeID(0); id < s.nodeLen; id++ {
		refs := s.attrRefs(id)
		moved := false
		for _, r := range refs {
			if nameMap[r.name] != r.name {
				moved = true
				break
			}
		}
		if !moved {
			continue
		}
		fresh := make([]attrRef, len(refs))
		for i, r := range refs {
			fresh[i] = attrRef{name: nameMap[r.name], val: r.val}
		}
		s.setAttrs(id, fresh)
	}

	s.qn = newQN
	return namesDropped
}
