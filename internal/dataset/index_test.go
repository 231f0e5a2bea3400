package dataset

import (
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func indexSnapshot() *Snapshot {
	s := NewSnapshot("2021-06", "test")
	s.AddDomain(DomainRecord{Domain: "a.com", MX: []MXObs{
		{Preference: 10, Exchange: "mx.shared.com", Addrs: []netip.Addr{netip.MustParseAddr("10.0.0.1")}},
		{Preference: 20, Exchange: "backup.other.com"},
	}})
	s.AddDomain(DomainRecord{Domain: "b.com", MX: []MXObs{
		{Preference: 5, Exchange: "mx.b.com", Addrs: []netip.Addr{netip.MustParseAddr("10.0.0.2")}},
		{Preference: 5, Exchange: "mx.shared.com", Addrs: []netip.Addr{netip.MustParseAddr("10.0.0.1")}},
	}})
	s.AddDomain(DomainRecord{Domain: "c.com"}) // no MX
	s.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.2")})
	s.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.1")})
	return s
}

func TestIndexSortedIPKeys(t *testing.T) {
	s := indexSnapshot()
	idx := s.Index()
	if len(idx.SortedIPKeys) != len(s.IPs) {
		t.Fatalf("SortedIPKeys len = %d, want %d", len(idx.SortedIPKeys), len(s.IPs))
	}
	if !sort.StringsAreSorted(idx.SortedIPKeys) {
		t.Errorf("keys not sorted: %v", idx.SortedIPKeys)
	}
	for _, k := range idx.SortedIPKeys {
		if _, ok := s.IPs[k]; !ok {
			t.Errorf("key %q not in IPs", k)
		}
	}
}

func TestIndexPrimaryMXMatches(t *testing.T) {
	s := indexSnapshot()
	idx := s.Index()
	for i := range s.Domains {
		want := s.Domains[i].PrimaryMX()
		if !reflect.DeepEqual(idx.PrimaryMX[i], want) {
			t.Errorf("PrimaryMX[%d] = %+v, want %+v", i, idx.PrimaryMX[i], want)
		}
	}
}

func TestIndexExchanges(t *testing.T) {
	s := indexSnapshot()
	idx := s.Index()
	// First-appearance order: a.com's primary (mx.shared.com) then b.com's
	// two primaries (mx.b.com, mx.shared.com dedup'd). backup.other.com is
	// not primary and must not appear.
	wantOrder := []string{"mx.shared.com", "mx.b.com"}
	if len(idx.Exchanges) != len(wantOrder) {
		t.Fatalf("Exchanges = %+v, want %v", idx.Exchanges, wantOrder)
	}
	for i, want := range wantOrder {
		if idx.Exchanges[i].Exchange != want {
			t.Errorf("Exchanges[%d] = %q, want %q", i, idx.Exchanges[i].Exchange, want)
		}
		if idx.ExchangeIndex[want] != i {
			t.Errorf("ExchangeIndex[%q] = %d, want %d", want, idx.ExchangeIndex[want], i)
		}
	}
}

func TestIndexCachedAndInvalidated(t *testing.T) {
	s := indexSnapshot()
	a := s.Index()
	if b := s.Index(); a != b {
		t.Error("Index not cached across calls")
	}
	s.AddDomain(DomainRecord{Domain: "d.com", MX: []MXObs{{Preference: 1, Exchange: "mx.d.com"}}})
	c := s.Index()
	if c == a {
		t.Error("Index not invalidated by AddDomain")
	}
	if _, ok := c.ExchangeIndex["mx.d.com"]; !ok {
		t.Error("rebuilt index missing new exchange")
	}
	s.AddIP(IPInfo{Addr: netip.MustParseAddr("10.0.0.3")})
	if d := s.Index(); d == c || len(d.SortedIPKeys) != 3 {
		t.Error("Index not invalidated by AddIP")
	}
}

func TestIndexConcurrentBuild(t *testing.T) {
	s := indexSnapshot()
	var wg sync.WaitGroup
	got := make([]*Index, 8)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = s.Index()
		}()
	}
	wg.Wait()
	for _, idx := range got[1:] {
		if idx != got[0] {
			t.Fatal("concurrent Index calls returned different builds")
		}
	}
}
