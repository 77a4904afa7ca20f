package sim

// SetRoundHash replaces the round memo's key hash, so that a test can
// force every round key into one bucket, and returns the restore.
func SetRoundHash(h func([]byte) uint64) (restore func()) {
	old := roundHash
	roundHash = h
	return func() { roundHash = old }
}
