package cluster

import "sort"

// Remove deletes a peer and its points.
func (r *Ring) Remove(peer string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.up[peer]; !ok {
		return
	}
	delete(r.up, peer)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.peer != peer {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Peers returns all members, sorted, regardless of health.
func (r *Ring) Peers() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.up))
	for p := range r.up {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
