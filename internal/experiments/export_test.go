package experiments

// Stats reports how many simulation requests the store served and how
// many required an actual execution.
func (s *Store) Stats() (requests, execs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests, s.execs
}
