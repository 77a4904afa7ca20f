package routing

// Dir returns the store's keyed directory (under the caller's root).
func (st *StaticDiskStore) Dir() string {
	if st == nil {
		return ""
	}
	return st.dir
}

// Entries returns the number of records currently served, statics and
// sidecars alike.
func (st *StaticDiskStore) Entries() int {
	if st == nil {
		return 0
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.recs)
}
