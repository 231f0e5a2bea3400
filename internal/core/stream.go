package core

import (
	"net/netip"
	"sort"

	"mxmap/internal/dataset"
)

// InferStream runs the selected approach over an on-disk snapshot
// without materializing its domain list. The methodology is unchanged —
// the run produces the same MX assignments and per-domain attributions
// as Infer over the loaded snapshot — but memory scales with the
// distinct-IP and distinct-exchange populations, which provider
// concentration keeps orders of magnitude below the domain count.
//
// The stream is read three times:
//
//   - the IP section is materialized (it is the bounded side);
//   - pass A over domains builds the deduplicated exchange inventory in
//     first-appearance order plus the popularity counters, exactly what
//     Snapshot.Index() precomputes for the in-memory path;
//   - pass B re-reads domains, attributing each one and handing it to
//     emit.
//
// emit receives every DomainAttribution in domain order; it may be nil
// when only the MX assignments matter. The returned Result carries a nil
// Domains slice — the attributions exist only during their emit call.
func InferStream(st *dataset.Stream, approach Approach, cfg Config, emit func(DomainAttribution)) (*Result, error) {
	cfg, memo, workers := prepare(cfg)

	ips, err := st.LoadIPs()
	if err != nil {
		return nil, err
	}
	sortedKeys := make([]string, 0, len(ips))
	for k := range ips {
		sortedKeys = append(sortedKeys, k)
	}
	sort.Strings(sortedKeys)

	// Pass A — exchange inventory (first-appearance order, first-wins
	// observation), popularity counters and trust statistics: the inputs
	// Infer reads from Snapshot.Index, gathered in one sweep.
	var (
		exchanges []dataset.MXObs
		exIndex   = make(map[string]bool)
		pop       = newPopCounter()
		nDomains  int
		tstats    *trustStats
	)
	if approach == ApproachPriority {
		tstats = newTrustStats()
	}
	err = st.ForEach(func(d *dataset.DomainRecord) error {
		nDomains++
		primary := d.PrimaryMX()
		if tstats != nil {
			tstats.observe(d, primary, memo)
		}
		for _, mx := range primary {
			if !exIndex[mx.Exchange] {
				exIndex[mx.Exchange] = true
				// The streamed record is reused; own the retained copy.
				kept := mx
				kept.Addrs = append([]netip.Addr(nil), mx.Addrs...)
				exchanges = append(exchanges, kept)
			}
		}
		pop.add(primary, ips)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res := inferAssignments(ips, sortedKeys, exchanges, pop.ip, pop.cert, tstats, approach, cfg, memo, workers)

	// Pass B — step 5, one attribution at a time.
	solo := soloCredits(res.MX)
	err = st.ForEach(func(d *dataset.DomainRecord) error {
		att := attributeDomain(d, d.PrimaryMX(), res.MX, ips, solo)
		if emit != nil {
			emit(att)
		}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	res.NumDomains = nDomains
	return res, nil
}
