package wal

// The record-test fixtures, for fuzz_test.go: an external test package,
// so that it can replay what it decodes into a core.Store (core imports
// wal).
var (
	SampleRecords    = sampleRecords
	MalformedRecords = malformedRecords
	EncodeBatch      = encodeBatch
	DecodeBatch      = decodeBatch
	GobPayload       = gobPayload
)

const RecordFormat = recordFormat
