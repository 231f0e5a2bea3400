package serve

// NoProviderLabel names the empty side of a provider flow: a domain
// that had (or has) no attributable mail provider.
const NoProviderLabel = "(none)"

// SnapshotMeta identifies the snapshot an answer was computed from.
// Epoch is the service-local load generation — it increments on every
// successful load or swap, so clients can detect flips.
type SnapshotMeta struct {
	Date    string `json:"date"`
	Corpus  string `json:"corpus"`
	Epoch   uint64 `json:"epoch"`
	Domains int    `json:"domains"`
}

// LookupResponse answers /v1/domain?name=X.
type LookupResponse struct {
	Domain    string             `json:"domain"`
	Found     bool               `json:"found"`
	Primary   string             `json:"primary,omitempty"`
	Credits   map[string]float64 `json:"credits,omitempty"`
	Rank      int                `json:"rank,omitempty"`
	HasSMTP   bool               `json:"has_smtp,omitempty"`
	Untrusted bool               `json:"untrusted,omitempty"`
	Stale     bool               `json:"stale,omitempty"`
	Snapshot  SnapshotMeta       `json:"snapshot"`
}

// ShareEntry is one company's market share.
type ShareEntry struct {
	Company string  `json:"company"`
	Domains float64 `json:"domains"`
	Percent float64 `json:"percent"`
}

// ShareResponse answers /v1/share?top=N.
type ShareResponse struct {
	Top      []ShareEntry `json:"top"`
	Stale    bool         `json:"stale,omitempty"`
	Snapshot SnapshotMeta `json:"snapshot"`
}

// ConcentrationResponse answers /v1/concentration.
type ConcentrationResponse struct {
	HHI                float64      `json:"hhi"`
	CR1                float64      `json:"cr1"`
	CR4                float64      `json:"cr4"`
	CR8                float64      `json:"cr8"`
	EffectiveCompanies float64      `json:"effective_companies"`
	Stale              bool         `json:"stale,omitempty"`
	Snapshot           SnapshotMeta `json:"snapshot"`
}

// ProviderFlow counts domains whose primary provider moved between two
// snapshots. Either side may be NoProviderLabel.
type ProviderFlow struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Count int    `json:"count"`
}

// ChurnReport describes what the latest swap changed, computed by
// comparing the old and new serving stores' attributions: domain counts
// on both sides, domains added and removed, domains present in both
// whose primary provider moved, and the provider-to-provider flows of
// every domain whose primary differs (an absent side counts as
// NoProviderLabel, so additions and removals with a provider flow too).
type ChurnReport struct {
	FromDate    string         `json:"from_date"`
	ToDate      string         `json:"to_date"`
	FromEpoch   uint64         `json:"from_epoch"`
	ToEpoch     uint64         `json:"to_epoch"`
	FromDomains int            `json:"from_domains"`
	ToDomains   int            `json:"to_domains"`
	Added       int            `json:"added"`
	Removed     int            `json:"removed"`
	Moved       int            `json:"moved"`
	Flows       []ProviderFlow `json:"flows,omitempty"`
	// SwapLatencyNS is the wall time of the whole swap, build through
	// epoch drain, on the service clock.
	SwapLatencyNS int64 `json:"swap_latency_ns"`
}

// ChurnResponse answers /v1/churn.
type ChurnResponse struct {
	Swaps uint64       `json:"swaps"`
	Last  *ChurnReport `json:"last,omitempty"`
}

// HealthResponse answers /healthz (always 200: liveness plus state).
type HealthResponse struct {
	State string `json:"state"`
	Stale bool   `json:"stale,omitempty"`
	Epoch uint64 `json:"epoch"`
}

// ReadyResponse answers /readyz (200 only when queries can be served).
type ReadyResponse struct {
	Ready bool   `json:"ready"`
	State string `json:"state"`
	Stale bool   `json:"stale,omitempty"`
}

// StatsResponse answers /v1/stats. Latency carries the per-endpoint
// histograms when the server was built with an observation Clock.
type StatsResponse struct {
	Server  ServerStats                `json:"server"`
	Service ServiceStats               `json:"service"`
	Latency map[string]EndpointLatency `json:"latency,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}
