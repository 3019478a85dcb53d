package shred_test

import (
	"reflect"
	"testing"

	"mxq/internal/core"
	"mxq/internal/shred"
)

// FuzzBuildXMLMatchesBuild holds the streaming load to the tree it
// replaced: core.BuildXML and core.Build over shred.ParseString accept
// the same inputs, refuse the rest with the same error, and build stores
// whose chunks are the same bytes — equal manifests, every chunk named
// by its content — on a small page and on the default one.
func FuzzBuildXMLMatchesBuild(f *testing.F) {
	for _, s := range shred.DifferentialSeeds {
		f.Add(s)
	}
	f.Add(shred.XMarkDoc(f, 0.002, 1))
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []core.Options{{PageSize: 8, FillFactor: 0.7}, {}} {
			streamed, errS := core.BuildXML(src, opts)
			tree, errB := shred.ParseString(src, shred.Options{})
			var built *core.Store
			if errB == nil {
				built, errB = core.Build(tree, opts)
			}
			if (errS == nil) != (errB == nil) || errS != nil && errS.Error() != errB.Error() {
				t.Fatalf("%q: BuildXML: %v; Build(ParseString): %v", src, errS, errB)
			}
			if errS != nil {
				continue
			}
			if err := streamed.CheckInvariants(); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			ms, mb := manifest(t, streamed), manifest(t, built)
			if !reflect.DeepEqual(ms, mb) {
				t.Fatalf("%q: the streamed store's chunks differ from the built one's:\n%+v\n%+v", src, ms, mb)
			}
		}
	})
}

// manifest names the store's chunks by content, as SaveChunked would,
// without writing them.
func manifest(t *testing.T, s *core.Store) *core.ChunkManifest {
	t.Helper()
	m, _ := s.BuildManifest()
	return m
}
