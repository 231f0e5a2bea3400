package dataset

import "sort"

// Index is a precomputed, read-only view of a Snapshot that the inference
// engine's hot path would otherwise re-derive on every call: the sorted
// IP key list (deterministic iteration), each domain's primary MX set,
// and the deduplicated primary-exchange inventory.
//
// Build it (lazily) with Snapshot.Index. An Index is immutable once
// built; mutating the snapshot through AddDomain/AddIP/SortDomains
// discards the cached index so the next Index call rebuilds it.
type Index struct {
	// SortedIPKeys holds every key of Snapshot.IPs in ascending order.
	SortedIPKeys []string
	// PrimaryMX caches Domains[i].PrimaryMX() by domain position.
	PrimaryMX [][]MXObs
	// Exchanges lists each distinct primary-MX exchange once, in
	// first-appearance order over domains (deterministic given input
	// order). The observation kept is the first one seen, matching the
	// first-wins semantics of the per-exchange assignment pass.
	Exchanges []MXObs
	// ExchangeIndex maps an exchange name to its position in Exchanges.
	ExchangeIndex map[string]int
}

// Index returns the snapshot's derived index, building it on first use.
// It is safe for concurrent use — including interleaved with AddDomain/
// AddIP/SortDomains, since the build runs under the same mutex as the
// mutators — and callers must not mutate the returned value. Mutating the
// snapshot invalidates the cached index; an Index obtained before a
// mutation remains a valid immutable view of the earlier state.
func (s *Snapshot) Index() *Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == nil {
		s.idx = buildIndex(s)
	}
	return s.idx
}

func buildIndex(s *Snapshot) *Index {
	idx := &Index{
		SortedIPKeys:  make([]string, 0, len(s.IPs)),
		PrimaryMX:     make([][]MXObs, len(s.Domains)),
		ExchangeIndex: make(map[string]int),
	}
	for k := range s.IPs {
		idx.SortedIPKeys = append(idx.SortedIPKeys, k)
	}
	sort.Strings(idx.SortedIPKeys)
	for i := range s.Domains {
		primary := s.Domains[i].PrimaryMX()
		idx.PrimaryMX[i] = primary
		for _, mx := range primary {
			if _, ok := idx.ExchangeIndex[mx.Exchange]; !ok {
				idx.ExchangeIndex[mx.Exchange] = len(idx.Exchanges)
				idx.Exchanges = append(idx.Exchanges, mx)
			}
		}
	}
	return idx
}
