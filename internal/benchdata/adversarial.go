package benchdata

import (
	"fmt"
	"net/netip"

	"mxmap/internal/dataset"
)

// Adversarial hand-builds the hostile scenarios the inference trust pass
// exists for: a stale-glue hijack forging a big provider's banner, a
// dangling exchange, a parked exchange, a six-domain look-alike abuse
// cluster, an honest Google customer inside Google's AS (15169), and a
// relay outside that AS whose banner claims Google, serving six
// unrelated domains. With an abuse-cluster threshold of 4 the cluster's
// exchange is flagged untrusted; at the default confidence threshold of
// 5 the relay is popular enough to escape the misidentification check
// and is credited to google.com.
func Adversarial() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-06", "test")
	addHijack(s)
	addDangling(s)

	// Parked: the exchange resolves onto a sinkhole with port 25 closed.
	s.AddDomain(dataset.DomainRecord{Domain: "lapsed.net", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.parking-lot.net", Addrs: []netip.Addr{ip("9.9.2.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: ip("9.9.2.1"), ASN: 64990, ASName: "PARKING", HasCensys: true, Parked: true})

	// Abuse cluster: six look-alike registrations share one cheap
	// exchange run by the bulk operator itself.
	addAbuseCluster(s, 6)

	// Honest control: a real Google customer inside Google's AS.
	addGoogleCustomers(s, "legit.com")
	addForgedRelay(s, relayCustomers...)
	return s
}

// AdversarialNext is the Adversarial world one snapshot later: the bulk
// operator lost half its look-alike registrations, dropping the cluster
// below a threshold of 4 — an assignment flip whose three surviving
// domains keep byte-identical records. The forged relay likewise lost
// half its domains, so the misidentification check now examines it and
// its three surviving domains move from google.com to mailrelay.biz
// with byte-identical records. lapsed.net recovered onto Google,
// newcomer.com is a new Google customer, and the hijacked, dangling and
// control domains are untouched.
func AdversarialNext() *dataset.Snapshot {
	s := dataset.NewSnapshot("2021-07", "test")
	addHijack(s)
	addDangling(s)
	addGoogleCustomers(s, "lapsed.net")
	addAbuseCluster(s, 3)
	addGoogleCustomers(s, "legit.com", "newcomer.com")
	addForgedRelay(s, relayCustomers[:3]...)
	return s
}

// relayCustomers are the forged relay's domains; their names share no
// look-alike stem, so the abuse rule never fires on the relay.
var relayCustomers = []string{"acme.com", "globex.com", "initech.com", "hooli.com", "umbrella.com", "vandelay.com"}

// addHijack adds a domain whose registry delegation no longer matches
// the serving NS; the relay's zone is gone and its banner claims Google.
func addHijack(s *dataset.Snapshot) {
	s.AddDomain(dataset.DomainRecord{Domain: "hijacked.com", Delegation: dataset.DelegationStaleGlue,
		MX: []dataset.MXObs{{Preference: 10, Exchange: "mx1.hijack-relay.net", Dangling: true,
			Addrs: []netip.Addr{ip("9.9.1.1")}}}})
	s.AddIP(dataset.IPInfo{Addr: ip("9.9.1.1"), ASN: 64991, ASName: "RELAY", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
}

// addDangling adds a domain whose exchange's registered zone lapsed; the
// exchange has no address at all.
func addDangling(s *dataset.Snapshot) {
	s.AddDomain(dataset.DomainRecord{Domain: "forgotten.org", MX: []dataset.MXObs{
		{Preference: 10, Exchange: "mx.gone-zone.net", Dangling: true}}})
}

// addAbuseCluster adds n look-alike domains on the bulk operator's
// exchange.
func addAbuseCluster(s *dataset.Snapshot, n int) {
	for i := 0; i < n; i++ {
		s.AddDomain(dataset.DomainRecord{Domain: fmt.Sprintf("cheap-pillz-dealz-%03d.xyz", i),
			MX: []dataset.MXObs{{Preference: 10, Exchange: "mx.bulk-blast.xyz",
				Addrs: []netip.Addr{ip("9.9.3.1")}}}})
	}
	s.AddIP(dataset.IPInfo{Addr: ip("9.9.3.1"), ASN: 64994, ASName: "BULK", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.bulk-blast.xyz ESMTP", BannerHost: "mx.bulk-blast.xyz", EHLOHost: "mx.bulk-blast.xyz",
		}})
}

// addGoogleCustomers adds domains served by Google's own exchange.
func addGoogleCustomers(s *dataset.Snapshot, domains ...string) {
	for _, d := range domains {
		s.AddDomain(dataset.DomainRecord{Domain: d, MX: []dataset.MXObs{
			{Preference: 10, Exchange: "aspmx.l.google.com", Addrs: []netip.Addr{ip("172.217.1.1")}}}})
	}
	s.AddIP(dataset.IPInfo{Addr: ip("172.217.1.1"), ASN: 15169, ASName: "GOOGLE", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP gsmtp", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
}

// addForgedRelay adds domains on a relay outside Google's AS whose
// banner claims Google.
func addForgedRelay(s *dataset.Snapshot, domains ...string) {
	for _, d := range domains {
		s.AddDomain(dataset.DomainRecord{Domain: d, MX: []dataset.MXObs{
			{Preference: 10, Exchange: "mx.mailrelay.biz", Addrs: []netip.Addr{ip("9.9.6.1")}}}})
	}
	s.AddIP(dataset.IPInfo{Addr: ip("9.9.6.1"), ASN: 64996, ASName: "RELAY-2", HasCensys: true, Port25Open: true,
		Scan: &dataset.ScanInfo{
			Banner: "mx.google.com ESMTP", BannerHost: "mx.google.com", EHLOHost: "mx.google.com",
		}})
}

func ip(s string) netip.Addr { return netip.MustParseAddr(s) }
