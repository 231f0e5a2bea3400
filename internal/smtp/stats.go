package smtp

import (
	"sync/atomic"

	"mxmap/internal/overload"
)

// ServerStats is a point-in-time snapshot of a Server's serving
// counters, the observable surface chaos tests assert against.
type ServerStats struct {
	// Accepted counts connections admitted below MaxConns.
	Accepted uint64
	// Rejected counts connections shed at the admission cap with a 421.
	Rejected uint64
	// Commands counts dispatched SMTP commands across all sessions.
	Commands uint64
	// BudgetCloses counts sessions closed for exhausting the
	// per-session command budget.
	BudgetCloses uint64
	// AcceptRetries counts transient Accept errors survived by backoff
	// instead of killing the accept loop.
	AcceptRetries uint64
	// Drains counts graceful Shutdown calls that completed within their
	// deadline; DrainTimeouts counts those that fell back to hard close.
	Drains        uint64
	DrainTimeouts uint64
}

// Merge accumulates another server's counters into st, for aggregating
// a fleet into one view.
func (st *ServerStats) Merge(o ServerStats) {
	st.Accepted += o.Accepted
	st.Rejected += o.Rejected
	st.Commands += o.Commands
	st.BudgetCloses += o.BudgetCloses
	st.AcceptRetries += o.AcceptRetries
	st.Drains += o.Drains
	st.DrainTimeouts += o.DrainTimeouts
}

// serverCounters is the live atomic counterpart of the protocol half of
// ServerStats; the connection half lives in the server's lifecycle.
type serverCounters struct {
	commands, budgetCloses atomic.Uint64
}

func (c *serverCounters) snapshot(lc *overload.ConnCounters) ServerStats {
	return ServerStats{
		Accepted:      lc.Accepted.Load(),
		Rejected:      lc.Rejected.Load(),
		Commands:      c.commands.Load(),
		BudgetCloses:  c.budgetCloses.Load(),
		AcceptRetries: lc.AcceptRetries.Load(),
		Drains:        lc.Drains.Load(),
		DrainTimeouts: lc.DrainTimeouts.Load(),
	}
}
