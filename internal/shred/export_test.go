package shred

// DifferentialSeeds and XMarkDoc are the shredder's differential seeds
// and fixture, for the external tests that hold other consumers of the
// counting pass to it.
var (
	DifferentialSeeds = differentialSeeds
	XMarkDoc          = xmarkDoc
)
