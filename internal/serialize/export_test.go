package serialize

// ReferenceAppend is Append over the per-tuple reference body, which the
// external tests hold the kernel to.
var ReferenceAppend = referenceAppend
