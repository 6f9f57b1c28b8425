package store

// LastReport returns the most recent completed pass (ok=false before the
// first one).
func (sc *Scrubber) LastReport() (ScrubReport, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.last, sc.lastOK
}

// Stat returns one object's info. TestStaleScrubVerdictSparesNewVersion,
// kept byte-identical as an ordering proof, calls it; other tests call
// lookup.
func (s *Store) Stat(name string) (ObjectInfo, error) {
	_, info, err := s.lookup(name)
	return info, err
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }
