package core

import (
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"sync"

	"mxmap/internal/asn"
	"mxmap/internal/dataset"
	"mxmap/internal/parallel"
	"mxmap/internal/psl"
)

// Approach selects which signals an inference run uses, matching the four
// approaches compared in the paper's Section 3.3.
type Approach int

// Approaches.
const (
	// ApproachMXOnly uses only the registered domain of the MX record.
	ApproachMXOnly Approach = iota
	// ApproachCertBased uses certificate consensus, falling back to MX.
	ApproachCertBased
	// ApproachBannerBased uses Banner/EHLO consensus, falling back to MX.
	ApproachBannerBased
	// ApproachPriority uses certificates, then Banner/EHLO, then MX, and
	// runs the misidentification check (the paper's full methodology).
	ApproachPriority
)

// String names the approach as in the paper's Figure 4 legend.
func (a Approach) String() string {
	switch a {
	case ApproachMXOnly:
		return "MX-only"
	case ApproachCertBased:
		return "cert-based"
	case ApproachBannerBased:
		return "banner-based"
	case ApproachPriority:
		return "priority-based"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// Approaches returns all approaches in evaluation order.
func Approaches() []Approach {
	return []Approach{ApproachMXOnly, ApproachCertBased, ApproachBannerBased, ApproachPriority}
}

// Source records which signal produced a provider ID.
type Source int

// Sources, in increasing reliability order.
const (
	// SourceNone marks an MX with no assignment (no MX data at all).
	SourceNone Source = iota
	// SourceMX means the registered domain of the MX record itself.
	SourceMX
	// SourceBanner means Banner/EHLO consensus across the MX's addresses.
	SourceBanner
	// SourceCert means certificate-group consensus across the addresses.
	SourceCert
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceMX:
		return "mx"
	case SourceBanner:
		return "banner"
	case SourceCert:
		return "cert"
	default:
		return "none"
	}
}

// ProviderProfile carries the prior knowledge used by the
// misidentification check (step 4) for one large provider.
type ProviderProfile struct {
	// ID is the provider ID the profile covers, e.g. "google.com".
	ID string
	// ASNs lists autonomous systems on which the provider genuinely
	// operates its own mail infrastructure.
	ASNs []asn.ASN
	// DedicatedPatterns are host globs for provider-operated servers
	// (e.g. "mailstore*.secureserver.net"); matches are legitimate.
	DedicatedPatterns []string
	// VPSPatterns are host globs for customer-rented machines (e.g.
	// "s*-*-*.secureserver.net", "vps*.secureserver.net"); a low-count
	// certificate or banner matching these means the customer self-hosts
	// on the provider's infrastructure.
	VPSPatterns []string
}

// Config parameterizes an inference run.
type Config struct {
	// PSL supplies registered-domain extraction (default psl.Default).
	PSL *psl.List
	// Profiles enables step 4 for these large providers.
	Profiles []ProviderProfile
	// ConfidenceThreshold is the per-assignment popularity below which an
	// assignment to a profiled provider is examined (default 5 domains).
	ConfidenceThreshold int
	// Parallelism bounds the worker pool sharding steps 2, 3 and 5
	// across cores. Zero or negative selects runtime.GOMAXPROCS(0); 1
	// forces a fully serial run. Output is byte-for-byte identical at
	// every setting: workers write into index-addressed slices and maps
	// are assembled only after each pool drains.
	Parallelism int
	// RequireBannerEHLOAgreement, when set, derives a Banner/EHLO ID only
	// when both messages carry the same registered domain (the strict
	// reading of Figure 3 step 2.2). The default accepts a valid FQDN
	// from either message when the other is absent, and rejects only
	// active disagreement.
	RequireBannerEHLOAgreement bool
	// DisableCertGrouping ablates step 1: every certificate forms its own
	// group, so providers with multiple disjoint certificates fragment
	// into multiple identities. Exists for the DESIGN.md ablation bench.
	DisableCertGrouping bool
	// PreferBannerOverCert ablates the priority order: Banner/EHLO
	// consensus is consulted before certificate consensus. Exists for the
	// DESIGN.md ablation bench.
	PreferBannerOverCert bool
	// AbuseClusterMinDomains enables the trust pass's look-alike abuse
	// detection: an exchange referenced by at least this many domains,
	// three quarters of which share one long digit-stripped naming stem,
	// is surfaced as a low-trust abuse cluster. Zero (the default)
	// disables the rule.
	AbuseClusterMinDomains int
}

func (c Config) pslOrDefault() *psl.List {
	if c.PSL != nil {
		return c.PSL
	}
	return psl.Default
}

// MXAssignment is the provider conclusion for one MX exchange name.
type MXAssignment struct {
	// Exchange is the MX target host.
	Exchange string
	// ProviderID is the inferred provider (a registered domain).
	ProviderID string
	// Source is the signal that produced ProviderID.
	Source Source
	// Confidence is the popularity score backing the assignment:
	// max(domains pointing at the busiest address, domains pointing at
	// the busiest certificate).
	Confidence int
	// Examined reports that step 4 flagged this assignment for review.
	Examined bool
	// Corrected reports that step 4 changed ProviderID.
	Corrected bool
	// Untrusted reports that the trust pass (or step 4's dangling rule)
	// refused to take the assignment at face value.
	Untrusted bool
	// CreditAs, when non-empty, is the sentinel bucket domains pointing
	// at this exchange are credited to instead of ProviderID. ProviderID
	// is retained for reporting what was claimed.
	CreditAs string
	// Reason explains a correction or why an examined assignment stood.
	Reason string
}

// DomainAttribution is the final per-domain outcome.
type DomainAttribution struct {
	// Domain is the measured domain.
	Domain string
	// Rank carries the corpus rank through to analysis (0 outside Alexa).
	Rank int
	// Credits maps provider ID to this domain's credit share; shares sum
	// to 1 when any MX exists. Domains credited wholly to one provider
	// share one map per run, so Credits is read-only.
	Credits map[string]float64
	// HasSMTP reports whether any primary-MX address accepted SMTP.
	HasSMTP bool
	// Untrusted reports that at least one credited assignment was
	// downgraded by the trust pass — the attribution is low-trust.
	Untrusted bool
}

// Primary returns the provider with the largest credit share, or "" when
// the domain has none.
func (d *DomainAttribution) Primary() string {
	best, bestCredit := "", 0.0
	for id, c := range d.Credits {
		if c > bestCredit || (c == bestCredit && (best == "" || id < best)) {
			best, bestCredit = id, c
		}
	}
	return best
}

// Result is a full inference run over one snapshot.
type Result struct {
	// Approach that produced the result.
	Approach Approach
	// MX maps exchange name to its assignment.
	MX map[string]*MXAssignment
	// Domains holds one attribution per input domain, in input order.
	// Nil for InferStream runs, which hand each attribution to the emit
	// callback instead of retaining it; NumDomains still counts them.
	Domains []DomainAttribution
	// NumDomains counts the attributed input domains.
	NumDomains int
	// NumExamined counts assignments flagged in step 4.
	NumExamined int
	// NumCorrected counts assignments changed in step 4.
	NumCorrected int
	// NumUntrusted counts assignments the trust pass downgraded.
	NumUntrusted int
}

// Infer runs the selected approach over a snapshot.
//
// The run is sharded across cfg.Parallelism workers but remains fully
// deterministic: steps 2, 3 and 5 fan out over the snapshot's
// precomputed index (sorted IP keys, deduplicated exchange inventory,
// domain positions) with every worker writing only its own
// index-addressed slot, and the result maps are assembled after the pool
// drains. Steps 1 and 4 are serial — cert grouping is a union-find over
// a small cert population and the misidentification pass touches only
// flagged assignments.
func Infer(s *dataset.Snapshot, approach Approach, cfg Config) *Result {
	cfg, memo, workers := prepare(cfg)
	idx := s.Index()
	numIP, numCert := popularity(s, idx, workers)
	var tstats *trustStats
	if approach == ApproachPriority {
		// Serial and in domain order, as in InferStream's pass A: the
		// per-exchange stem cap makes the statistics order-dependent.
		tstats = newTrustStats()
		for i := range s.Domains {
			tstats.observe(&s.Domains[i], idx.PrimaryMX[i], memo)
		}
	}
	res := inferAssignments(s.IPs, idx.SortedIPKeys, idx.Exchanges, numIP, numCert, tstats, approach, cfg, memo, workers)

	// Step 5 — per-domain attribution, sharded over domain positions.
	// res.MX is read-only from here on, so concurrent map reads are safe.
	solo := soloCredits(res.MX)
	res.Domains = make([]DomainAttribution, len(s.Domains))
	res.NumDomains = len(s.Domains)
	parallel.Run(len(s.Domains), workers, func(i int) {
		res.Domains[i] = attributeDomain(&s.Domains[i], idx.PrimaryMX[i], res.MX, s.IPs, solo)
	})
	return res
}

// prepare fills Config defaults and builds the per-run PSL memo and
// worker count shared by Infer and InferStream.
func prepare(cfg Config) (Config, *psl.Memo, int) {
	if cfg.ConfidenceThreshold == 0 {
		cfg.ConfidenceThreshold = 5
	}
	return cfg, psl.NewMemo(cfg.pslOrDefault()), parallel.Workers(cfg.Parallelism)
}

// inferAssignments runs steps 1-4 plus the trust pass: everything up to
// (but excluding) per-domain attribution. Its inputs are the IP
// observations with their sorted keys, the deduplicated exchange
// inventory in first-appearance order, the popularity counters and —
// for the priority approach — the trust statistics. Infer gathers them
// from Snapshot.Index; InferStream gathers them in its pass A.
func inferAssignments(ips map[string]dataset.IPInfo, sortedKeys []string, exchanges []dataset.MXObs, numIP, numCert map[string]int, tstats *trustStats, approach Approach, cfg Config, memo *psl.Memo, workers int) *Result {
	// Step 1 — certificate preprocessing (cert-based and priority only).
	var groups *CertGroups
	if approach == ApproachCertBased || approach == ApproachPriority {
		certList := collectCerts(ips, sortedKeys)
		if cfg.DisableCertGrouping {
			groups = singletonGroups(certList, memo)
		} else {
			groups = groupCertificates(certList, memo)
		}
	}

	// Step 2 — per-IP identities, sharded over the sorted key list.
	ipIDs := computeIPIDs(ips, sortedKeys, groups, memo, cfg, workers)

	// Step 3 — per-MX provider IDs, sharded over the deduplicated
	// exchange inventory (one assignment per distinct exchange).
	res := &Result{Approach: approach, MX: make(map[string]*MXAssignment, len(exchanges))}
	assigns := make([]*MXAssignment, len(exchanges))
	parallel.Run(len(exchanges), workers, func(i int) {
		assigns[i] = assignMX(exchanges[i], approach, ipIDs, numIP, numCert, ips, memo, cfg.PreferBannerOverCert)
	})
	for _, a := range assigns {
		res.MX[a.Exchange] = a
	}

	// Step 4 — misidentification check (priority approach only).
	if approach == ApproachPriority && len(cfg.Profiles) > 0 {
		checkMisidentifications(res, exchanges, ips, ipIDs, cfg, memo)
	}

	// Trust pass — hijack/abuse-aware provenance cross-check.
	if tstats != nil {
		checkTrust(res, exchanges, ips, tstats, cfg)
	}
	return res
}

// collectCerts gathers every captured certificate in the IP
// observations, walking the presorted key list for deterministic order.
func collectCerts(ips map[string]dataset.IPInfo, sortedKeys []string) []Cert {
	seen := make(map[string]bool)
	var out []Cert
	for _, k := range sortedKeys {
		info := ips[k]
		sc := info.Scan
		if sc == nil || !sc.CertPresent || sc.CertFingerprint == "" || seen[sc.CertFingerprint] {
			continue
		}
		seen[sc.CertFingerprint] = true
		out = append(out, Cert{
			Fingerprint: sc.CertFingerprint,
			Names:       sc.CertNames,
			Valid:       sc.CertValid,
		})
	}
	return out
}

// ipIdentity is the step 2 outcome for one address.
type ipIdentity struct {
	certID   string // "" when unavailable
	bannerID string // "" when unavailable
	scanned  bool   // port 25 produced a session
}

// computeIPIDs derives step 2 identities for every scanned address.
// Workers fill an index-addressed slice over the sorted key list; the
// map is assembled after the barrier so the outcome is independent of
// scheduling.
func computeIPIDs(ips map[string]dataset.IPInfo, sortedKeys []string, groups *CertGroups, memo *psl.Memo, cfg Config, workers int) map[string]ipIdentity {
	ids := make([]ipIdentity, len(sortedKeys))
	parallel.Run(len(sortedKeys), workers, func(i int) {
		info := ips[sortedKeys[i]]
		sc := info.Scan
		if sc == nil {
			return
		}
		id := ipIdentity{scanned: true}
		// 2.1 — ID from certificate: only valid certificates count.
		if groups != nil && sc.CertPresent && sc.CertValid {
			if rep, ok := groups.Representative(sc.CertFingerprint); ok {
				id.certID = rep
			}
		}
		// 2.2 — ID from Banner/EHLO.
		id.bannerID = bannerIdentity(sc, memo, cfg.RequireBannerEHLOAgreement)
		ids[i] = id
	})
	out := make(map[string]ipIdentity, len(sortedKeys))
	for i, k := range sortedKeys {
		out[k] = ids[i]
	}
	return out
}

// bannerIdentity derives the registered-domain identity from the banner
// and EHLO hosts.
func bannerIdentity(sc *dataset.ScanInfo, memo *psl.Memo, strict bool) string {
	bannerReg := regOf(sc.BannerHost, memo)
	ehloReg := regOf(sc.EHLOHost, memo)
	switch {
	case bannerReg != "" && ehloReg != "":
		if bannerReg == ehloReg {
			return bannerReg
		}
		return "" // active disagreement: unreliable
	case strict:
		return ""
	case bannerReg != "":
		return bannerReg
	default:
		return ehloReg
	}
}

// regOf extracts the registered domain of a host string when it is a
// plausible FQDN.
func regOf(host string, memo *psl.Memo) string {
	host = normalizeHost(host)
	if !dataset.ValidFQDN(host) {
		return ""
	}
	reg, ok := memo.RegisteredDomain(host)
	if !ok {
		return ""
	}
	return reg
}

// normalizeHost lower-cases and strips the trailing dot from a host name.
func normalizeHost(h string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(h)), ".")
}

// popularity counts, per address and per certificate, how many domains'
// primary MX sets lead there. Workers accumulate into private counters
// over disjoint domain ranges; the merge after the barrier sums per-key,
// so the totals are order-independent.
func popularity(s *dataset.Snapshot, idx *dataset.Index, workers int) (numIP, numCert map[string]int) {
	parts := make([]*popCounter, 0, workers)
	var mu sync.Mutex
	parallel.RunChunks(len(s.Domains), workers, func(lo, hi int) {
		c := newPopCounter()
		for i := lo; i < hi; i++ {
			c.add(idx.PrimaryMX[i], s.IPs)
		}
		mu.Lock()
		parts = append(parts, c)
		mu.Unlock()
	})
	numIP = make(map[string]int)
	numCert = make(map[string]int)
	for _, c := range parts {
		for k, v := range c.ip {
			numIP[k] += v
		}
		for k, v := range c.cert {
			numCert[k] += v
		}
	}
	return numIP, numCert
}

// popCounter accumulates the popularity counters one domain at a time:
// each domain counts once per distinct address and once per distinct
// certificate its primary MX set leads to.
type popCounter struct {
	ip, cert         map[string]int
	seenIP, seenCert []string // tiny per-domain sets: linear scan beats a map
}

func newPopCounter() *popCounter {
	return &popCounter{ip: make(map[string]int), cert: make(map[string]int)}
}

// add folds one domain's primary MX set into the counters.
func (c *popCounter) add(primary []dataset.MXObs, ips map[string]dataset.IPInfo) {
	c.seenIP, c.seenCert = c.seenIP[:0], c.seenCert[:0]
	for _, mx := range primary {
		for _, a := range mx.Addrs {
			key := a.String()
			if slices.Contains(c.seenIP, key) {
				continue
			}
			c.seenIP = append(c.seenIP, key)
			c.ip[key]++
			if info, ok := ips[key]; ok && info.Scan != nil && info.Scan.CertFingerprint != "" {
				if fp := info.Scan.CertFingerprint; !slices.Contains(c.seenCert, fp) {
					c.seenCert = append(c.seenCert, fp)
					c.cert[fp]++
				}
			}
		}
	}
}

// assignMX performs step 3 for one MX record under the chosen approach.
func assignMX(mx dataset.MXObs, approach Approach, ipIDs map[string]ipIdentity, numIP, numCert map[string]int, ips map[string]dataset.IPInfo, memo *psl.Memo, bannerFirst bool) *MXAssignment {
	a := &MXAssignment{Exchange: mx.Exchange}

	// Confidence: the busiest signal backing this MX.
	for _, addr := range mx.Addrs {
		key := addr.String()
		if c := numIP[key]; c > a.Confidence {
			a.Confidence = c
		}
		if info, ok := ips[key]; ok && info.Scan != nil {
			if c := numCert[info.Scan.CertFingerprint]; c > a.Confidence {
				a.Confidence = c
			}
		}
	}

	useCert := approach == ApproachCertBased || approach == ApproachPriority
	useBanner := approach == ApproachBannerBased || approach == ApproachPriority

	tryCert := func() bool {
		if !useCert {
			return false
		}
		id, ok := consensus(mx.Addrs, ipIDs, func(i ipIdentity) string { return i.certID })
		if ok {
			a.ProviderID, a.Source = id, SourceCert
		}
		return ok
	}
	tryBanner := func() bool {
		if !useBanner {
			return false
		}
		id, ok := consensus(mx.Addrs, ipIDs, func(i ipIdentity) string { return i.bannerID })
		if ok {
			a.ProviderID, a.Source = id, SourceBanner
		}
		return ok
	}
	if bannerFirst {
		if tryBanner() || tryCert() {
			return a
		}
	} else if tryCert() || tryBanner() {
		return a
	}
	a.ProviderID, a.Source = mxFallbackID(mx.Exchange, memo), SourceMX
	return a
}

// consensus returns the shared non-empty identity across every address,
// requiring each address to carry one.
func consensus(addrs []netip.Addr, ipIDs map[string]ipIdentity, pick func(ipIdentity) string) (string, bool) {
	if len(addrs) == 0 {
		return "", false
	}
	var id string
	for _, a := range addrs {
		v := pick(ipIDs[a.String()])
		if v == "" {
			return "", false
		}
		if id == "" {
			id = v
		} else if id != v {
			return "", false
		}
	}
	return id, true
}

// mxFallbackID is the registered domain of the MX name, or the
// (normalized) name itself when no registered domain can be derived.
func mxFallbackID(exchange string, memo *psl.Memo) string {
	h := normalizeHost(exchange)
	if reg, ok := memo.RegisteredDomain(h); ok {
		return reg
	}
	return h
}

// soloCredits builds one read-only credit map per credit bucket of the
// run's assignments, crediting that bucket alone with the whole domain.
// Most domains are credited wholly to one bucket; sharing these maps
// keeps a result's memory proportional to its buckets, not its domains.
func soloCredits(mx map[string]*MXAssignment) map[string]map[string]float64 {
	solo := make(map[string]map[string]float64)
	for _, a := range mx {
		if b := a.creditBucket(); b != "" && solo[b] == nil {
			solo[b] = map[string]float64{b: 1}
		}
	}
	return solo
}

// creditBucket is where domains pointing at the exchange are credited:
// the sentinel when one is set, else the provider, else nowhere ("").
func (a *MXAssignment) creditBucket() string {
	if a.CreditAs != "" {
		return a.CreditAs
	}
	return a.ProviderID
}

// attributeDomain performs step 5 for one domain, using the index's
// cached primary MX set. A domain credited wholly to one bucket gets
// that bucket's shared map from solo.
func attributeDomain(d *dataset.DomainRecord, primary []dataset.MXObs, mxAssign map[string]*MXAssignment, ips map[string]dataset.IPInfo, solo map[string]map[string]float64) DomainAttribution {
	out := DomainAttribution{Domain: d.Domain, Rank: d.Rank}
	share := 1.0 / float64(len(primary))
	only, mixed, total := "", false, 0.0
	for _, mx := range primary {
		if a, ok := mxAssign[mx.Exchange]; ok {
			if a.Untrusted {
				out.Untrusted = true
			}
			if b := a.creditBucket(); b != "" {
				mixed = mixed || (only != "" && b != only)
				only = b
				total += share
			}
		}
		for _, addr := range mx.Addrs {
			if info, ok := ips[addr.String()]; ok && info.Port25Open {
				out.HasSMTP = true
			}
		}
	}
	if !mixed && total == 1 {
		out.Credits = solo[only]
		return out
	}
	out.Credits = make(map[string]float64)
	for _, mx := range primary {
		if a, ok := mxAssign[mx.Exchange]; ok {
			if b := a.creditBucket(); b != "" {
				out.Credits[b] += share
			}
		}
	}
	return out
}
