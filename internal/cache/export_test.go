package cache

// NewRefFALRU exposes the reference FALRU (falru_ref_test.go) to the
// external tests.
func NewRefFALRU(sizeBytes, lineBytes int) interface {
	Access(addr uint64, write bool)
	FlushDirty()
	Stats() Stats
} {
	return newRefFALRU(sizeBytes, lineBytes)
}
