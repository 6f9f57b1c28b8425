package store

// LastReport returns the most recent completed pass (ok=false before the
// first one).
func (sc *Scrubber) LastReport() (ScrubReport, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.last, sc.lastOK
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }
